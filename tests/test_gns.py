"""Tests for the GNS realization and the analytic layer built on it."""

import collections
import contextlib
import dataclasses
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from qgcheck import cli, duality
from qgcheck import gns as G
from qgcheck.duality import AlgMultUnitary, build_alg_mult_unitary, build_dual
from qgcheck.modular import solve_haar
from qgcheck.errors import CheckFailure, ModelError, TierRefusal
from qgcheck.hopf import galois_map
from qgcheck.linalg import LinMap, Vec
from qgcheck.models import GroupTable
from qgcheck.report import Checker, CheckRecord, ensure
from qgcheck.scalars import Cyc
from faults import Fault

FULL_SUITE = ["trivial", "c_z2", "c_z3", "c_s3", "cg_z2", "cg_s3", "d_z3"]


def run_all_checks(g):
    return G.analytic_suite(g)


def chain(model) -> AlgMultUnitary:
    """The Haar data, dual and w of model, each built from the one before."""
    return build_alg_mult_unitary(build_dual(solve_haar(model)))


def test_refusal_scaling_constant(mw_cache):
    for name in ("sweedler", "taft3"):
        with pytest.raises(TierRefusal, match="mu"):
            G.build_gns(mw_cache(name))


def test_refusal_non_positive_gram(model_cache):
    # negating the involution negates the Gram matrix phi(a* b)
    m = model_cache("c_z2")
    spoiled = dataclasses.replace(
        m, invol=m.invol.scale(m.scalar(-1)), positive=False)
    with pytest.raises(TierRefusal,
                       match="Gram matrix of phi is not Hermitian positive "
                             "definite"):
        G.build_gns(chain(spoiled))


@pytest.mark.parametrize("name", ["c_z3", "cg_s3"])
def test_unfaithful_multiplication_fails_in_solve_haar(model_cache, name):
    """With every product of one basis element f zeroed, L_f = 0, so the
    rows of phi o mult are dependent: the Haar solve raises ModelError, so
    no chain reaches build_gns to refuse the model as unfaithful."""
    m = model_cache(name)
    f, d = 1, m.dim
    cols = {j: col for j, col in m.mult.cols.items() if f not in divmod(j, d)}
    spoiled = dataclasses.replace(m, mult=LinMap(m.AA, m.A, cols))
    with pytest.raises(ModelError,
                       match="invariant functional is not faithful"):
        solve_haar(spoiled)


def assert_identity_maps(dd):
    """Every modular operator's exact coordinate map is the identity."""
    ident = LinMap.identity(dd.source.A)
    for name, x in G.modular_maps(dd).items():
        assert x == ident, name


def test_trivial_model(gns_cache):
    # w = 1 exactly, so W = (Lambda (x) Lambda) w (Lambda (x) Lambda)^-1 = 1
    g = gns_cache("trivial")
    m = g.mw.duality.source
    assert m.dim == 1
    assert g.mw.w == LinMap.identity(m.AA)
    assert_identity_maps(g.mw.duality)
    ensure(run_all_checks(g))


def test_function_algebra_gram_is_normalized_counting(gns_cache):
    # phi is the normalized counting measure, so the basis of indicator
    # functions is orthogonal with norm^2 = 1/|G|
    g = gns_cache("c_z2")
    half = Cyc.rational(Fraction(1, 2))
    dd = g.mw.duality
    assert dd.haar.gram == dd.source.idA.scale(half)


def test_w_is_translation_permutation_on_function_algebra(gns_cache):
    # on C(S3) the Gram matrix is I/6, so the frame is a scalar and W = w,
    # which sends e_a (x) e_b to e_a (x) e_ab
    g = gns_cache("c_s3")
    m = g.mw.duality.source
    assert g.mw.duality.haar.gram == m.idA.scale(Cyc.rational(Fraction(1, 6)))
    table = GroupTable.symmetric(3)
    w = g.mw.w
    for a in range(m.dim):
        for b in range(m.dim):
            assert w.column((a, b)) == Vec.basis(m.AA, (a, table.mul(a, b)))


# passed/failed/skipped of `verify NAME --suite all` on each positive
# built-in, d_s3 included: no record is skipped
POSITIVE_COUNTS = {name: (181, 0, 0) for name in (
    "c_s3", "c_z2", "c_z3", "c_z4", "cg_s3", "cg_z2", "cg_z3", "d_z2",
    "d_z3", "d_s3", "trivial")}

# no analytic record runs in floats
FLOAT_RECORDS = set()


def verify_all_report(name, tmp_path, model_cache, monkeypatch) -> dict:
    """The JSON report of `verify NAME --suite all`, with its counts and
    its Kac-collapsed records checked."""
    # the session's models carry the exact builds other tests memoized
    monkeypatch.setattr(cli, "_load_model", model_cache)
    out = tmp_path / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", name, "--suite", "all", "--report",
                       str(out)])
    report = json.loads(out.read_text())
    counts = (report["passed"], report["failed"], report["skipped"])
    assert counts == POSITIVE_COUNTS[name]
    assert rc == 0
    # the 52 Kac-collapsed records are all there, in table order, exact;
    # the powers ids are spelled from Z_GRID
    assert [s for s in G.KAC_RECORDS if s.startswith("powers")] == [
        "powers[z=0.5]", "powers[z=1j]", "powers[z=(1+1j)]"]
    expected = [f"{section}.{check_id}"
                for section, rows in G.KAC_RECORDS.items()
                for check_id, _, _ in rows]
    assert len(expected) == 52
    kac = [r for r in report["checks"]
           if r["check_id"].split(".gns.")[-1] in expected]
    assert [r["check_id"].split(".gns.")[-1] for r in kac] == expected
    assert all(r["status"] == "pass" and r["tolerance"] is None
               for r in kac)
    # every other analytic record is exact as well
    numeric = {r["check_id"].split(".gns.")[-1] for r in report["checks"]
               if ".gns." in r["check_id"] and r["tolerance"] is not None}
    assert numeric == FLOAT_RECORDS
    return report


@pytest.mark.parametrize(
    "name", sorted(n for n in POSITIVE_COUNTS if n != "d_s3"))
def test_full_check_suite(name, tmp_path, model_cache, monkeypatch):
    verify_all_report(name, tmp_path, model_cache, monkeypatch)


@pytest.mark.parametrize("name", FULL_SUITE)
def test_kac_models_have_identity_modular_operators(gns_cache, name):
    g = gns_cache(name)
    assert_identity_maps(g.mw.duality)
    records = [r for recs in G.check_kac_collapse(g.mw.duality).values()
               for r in recs]
    assert len(records) == 52
    assert all(r.status == "pass" and r.tolerance is None for r in records)


def test_left_slice_oracle_c_z2(gns_cache):
    # on C(Z2): (iota (x) omega_{L e_x, L e_y})(W) = (1/2) m(e_{x+y}); the
    # slice is Lambda B Lambda^-1 for the block B of (1 (x) G) w at (x, y),
    # so B = (1/2) L_{e_{x+y}}
    g = gns_cache("c_z2")
    m = g.mw.duality.source
    slices = g.mw.slices[1]
    half = Cyc.rational(Fraction(1, 2))
    for x in range(2):
        for y in range(2):
            lxy = m.lmul(m.basis_vec((x + y) % 2))
            want = Vec(m.AA, {i * 2 + j: v for i, j, v in lxy.entries()})
            assert slices.column((x, y)) == half * want


@pytest.mark.parametrize("name", ["c_s3", "d_z3"])
def test_density_of_a_singular_galois_map_keeps_the_rank_witness(gns_cache,
                                                                  name):
    """With gl and gr made singular (their column 0 dropped) on a copy of
    the source, ``coprod.implemented`` still passes and each density
    record has the record of ranking rl_op = gl o flip or rr_op = gr o
    flip: "ranks d^2 - 1, expected d^2", residual 1.0."""
    mw = gns_cache(name).mw
    dd = mw.duality
    src = dataclasses.replace(dd.source)  # a fresh memo
    for kind in ("gl", "gr"):
        g = galois_map(dd.source, kind)
        src._memo[("galois", kind)] = LinMap(g.dom, g.cod, {
            j: col for j, col in g.cols.items() if j})
    records = {r.check_id: r
               for r in G.check_coproduct_implementation(
                   dataclasses.replace(
                       mw, duality=dataclasses.replace(dd, source=src)))}
    oracle = Checker(f"{src.name}.gns.coprod")
    n = src.dim ** 2
    assert records[f"{src.name}.gns.coprod.implemented"].ok
    for side, kind in (("right", "gl"), ("left", "gr")):
        want = oracle.exact(f"density.{side}", "", lambda kind=kind:
                            G._require_span(n, galois_map(src, kind)
                                            @ src.flipA))
        got = records[want.check_id]
        assert (got.status, got.residual, got.witness) \
            == (want.status, want.residual, want.witness) \
            == ("fail", 1.0, f"ranks {n - 1}, expected {n}")


def test_coproduct_of_grouplike_basis(gns_cache):
    # in a group algebra W^H (1 (x) m(u_g)) W = m(u_g) (x) m(u_g), that is
    # w^H (G (x) G)(1 (x) L_g) w = (G (x) G)(L_g (x) L_g)
    g = gns_cache("cg_z2")
    m, w = g.mw.duality.source, g.mw.w
    gg = g.mw.duality.haar.gram.tensor(g.mw.duality.haar.gram)
    for k in range(2):
        lk = m.lmul(m.basis_vec(k))
        assert w.adjoint() @ gg @ m.idA.tensor(lk) @ w == gg @ lk.tensor(lk)


def test_complex_power_multipliers(gns_cache):
    # delta = 1 and delta_hat = 1 exactly, so every power of delta is the
    # identity multiplier and the powers records pass exactly
    for name in ("c_s3", "d_z3"):
        g = gns_cache(name)
        sections = G.check_kac_collapse(g.mw.duality)
        for z in (0.5, 1j, 1 + 1j):
            records = ensure(sections[f"powers[z={z}]"])
            assert len(records) == 4
            assert all(r.tolerance is None for r in records)


def test_rho_is_trivial_on_kac_models(gns_cache):
    # N acts as S^2, which is the identity on a Kac model
    g = gns_cache("c_s3")
    m = g.mw.duality.source
    s = m.antipode
    assert s @ s == LinMap.identity(m.A)
    assert G.modular_maps(g.mw.duality)["n"] == s @ s
    modgroup = G.check_kac_collapse(g.mw.duality)["modgroup"]
    rho = [r for r in modgroup if ".rho." in r.check_id]
    assert len(rho) == 2 and all(r.status == "pass" for r in rho)


def test_power_calculus_failure_names_operator(duality_cache):
    # on taft3 (S^2 != id) the calculus records fail at the first
    # non-identity operator, named in the witness with its worst entry
    dd = duality_cache("taft3")
    maps = G.modular_maps(dd)
    ident = LinMap.identity(dd.source.A)
    first = next(name for name in G.MODULAR_OPERATORS if maps[name] != ident)
    for r in G.check_kac_collapse(dd)["calc"]:
        assert r.status == "fail" and r.residual > 0
        assert r.witness.startswith(f"operator {first}: entry ("), r.witness


# the float oracles below compare at this bound
ORACLE_TOL = 1e-10


def _float_frame(g):
    """(lam, lam^-1) with lam^H lam = G, the Cholesky frame of the Gram
    matrix in floats, for oracles only."""
    lam = np.linalg.cholesky(g.mw.duality.haar.gram.to_numpy()).conj().T
    return lam, np.linalg.inv(lam)


def test_kms_bound_is_equality_on_group_algebra(gns_cache):
    # with an orthonormal group-element basis both sides equal 1; the
    # exact records put sigma_{i/2} = id, and the exact row test meets
    # its bound s_i = 1 with equality
    g = gns_cache("cg_s3")
    m, gram = g.mw.duality.source, g.mw.duality.haar.gram
    assert G.modular_maps(g.mw.duality)["nabla"] == LinMap.identity(m.A)
    lam, frame = _float_frame(g)

    def m_of(f):
        return lam @ m.lmul(f).to_numpy() @ frame

    for i in (0, 3):
        assert G._kms_scale(m, gram, i) == Cyc.one(1)
        for j in (1, 4):
            lhs = float(np.linalg.norm(m_of(m.basis_vec(j)) @ lam[:, i]))
            bound = float(np.linalg.norm(m_of(m.bar(m.basis_vec(i))), 2))
            rhs = bound * float(np.linalg.norm(lam[:, j]))
            assert abs(lhs - 1.0) <= ORACLE_TOL
            assert abs(rhs - 1.0) <= ORACLE_TOL


# -- mutants of the two laws of the frame ------------------------------------


def _set_entry(t: LinMap, i: int, j: int, value) -> LinMap:
    """t with entry (i, j) replaced by value."""
    return t + LinMap.from_entries(t.dom, t.cod,
                                   [(i, j, value - t.entry(i, j))])


@pytest.mark.parametrize("name", ["c_z2", "c_s3", "cg_s3", "d_z3"])
def test_mutated_gram_fails_the_inner_product_record(gns_cache, name):
    # the record reads the Gram matrix it is given, not the gram_positive
    # flag, which every mutant below leaves set
    mw = gns_cache(name).mw
    dd = mw.duality
    gram, k = dd.haar.gram, dd.source.dim // 2

    def record(mutant):
        haar = dataclasses.replace(dd.haar, gram=mutant)
        assert haar.gram_positive
        (rec,) = [r for r in G.check_regular_reps(dataclasses.replace(
                      mw, duality=dataclasses.replace(dd, haar=haar)))
                  if r.check_id.endswith(".lambda.inner-product")]
        assert rec.tolerance is None
        return rec

    assert record(gram).status == "pass"
    # not Hermitian: one off-diagonal entry changed
    rec = record(_set_entry(gram, 0, 1, gram.entry(0, 1) + 1))
    assert rec.status == "fail"
    assert rec.witness.startswith("G - G^H: entry ("), rec.witness
    # not positive definite: a diagonal entry set to 0 or below
    for value in (0, -1):
        rec = record(_set_entry(gram, k, k, value))
        assert (rec.status, rec.witness) == ("fail",
                                             "G is not positive definite")


@pytest.mark.parametrize("name", ["c_z2", "c_s3", "cg_s3", "d_z3"])
def test_raised_kms_bound_fails_every_row(gns_cache, monkeypatch, name):
    # each row holds at its bound s_i and fails at s_i + 1; the record
    # then fails, naming the first row
    g = gns_cache(name)
    m, gram = g.mw.duality.source, g.mw.duality.haar.gram
    for i in range(m.dim):
        s = G._kms_scale(m, gram, i)
        assert G._kms_row_holds(m, gram, i, s), i
        assert not G._kms_row_holds(m, gram, i, s + 1), i

    scale = G._kms_scale
    monkeypatch.setattr(G, "_kms_scale",
                        lambda m, gram, i: scale(m, gram, i) + 1)
    implemented = CheckRecord("coprod.implemented", "", "pass")
    (rec,) = [r for r in G.check_invariance_and_kms(g.mw.duality, implemented)
              if r.check_id.endswith(".kms.bound")]
    assert rec.status == "fail" and rec.tolerance is None
    assert rec.witness.startswith("row 0: "), rec.witness


def test_fourier_isometry_constant(gns_cache):
    # Gram = I/6 while the dual basis vectors carry an extra 1/6, giving a
    # dual Gram of I/36 and an isometry constant of 1/6
    dd = gns_cache("c_s3").mw.duality
    gram, dual_gram = dd.haar.gram, dd.dual_haar.gram
    sixth = Cyc.rational(Fraction(1, 6))

    def trace(t):
        return sum((t.entry(i, i) for i in range(dd.source.dim)), Cyc.zero())

    assert trace(dual_gram) / trace(gram) == sixth
    assert dual_gram == gram.scale(sixth)
    assert dual_gram == dd.source.idA.scale(sixth * sixth)


def test_modular_conjugation_reduces_to_involution(gns_cache):
    # sigma = id exactly, so nabla = I and the polar part J equals T, the
    # antilinear map Lambda(f) -> Lambda(f*), whose linear part must then
    # be unitary
    g = gns_cache("c_s3")
    m = g.mw.duality.source
    assert g.mw.duality.haar.sigma == LinMap.identity(m.A)
    lam, frame = _float_frame(g)
    invol, eye = m.invol.to_numpy(), np.eye(m.dim)
    t_mat = lam @ invol @ np.conj(frame)
    assert np.allclose(t_mat.conj().T @ t_mat, eye, rtol=0, atol=ORACLE_TOL)
    assert np.allclose(t_mat @ t_mat.conj().T, eye, rtol=0, atol=ORACLE_TOL)
    for k in range(m.dim):
        got = t_mat @ np.conj(lam[:, k])
        want = lam @ invol[:, k]
        assert np.allclose(got, want, rtol=0, atol=ORACLE_TOL)


def test_unitary_antipode_reduces_to_antipode(gns_cache):
    # M = rmul(delta) S^2 is the identity, so tau is trivial and R = S; the
    # four r.* records are exact
    dd = gns_cache("c_s3").mw.duality
    assert G.modular_maps(dd)["m"] == LinMap.identity(dd.source.A)
    records = G.check_kac_collapse(dd)["weight"]
    assert [r.check_id.rsplit(".", 2)[-2:] for r in records] == [
        ["r", "lands-in-span"], ["r", "involutive"],
        ["r", "anti-multiplicative"], ["r", "right-invariant"]]
    assert all(r.status == "pass" and r.tolerance is None for r in records)


def test_large_double_builds_and_slices(tmp_path, model_cache, monkeypatch):
    # d_s3 (dim 36) through the CLI: the slice records pass, and nothing
    # is skipped, the GNS pentagon included
    report = verify_all_report("d_s3", tmp_path, model_cache, monkeypatch)
    reps = [r for r in report["checks"] if ".gns.reps." in r["check_id"]]
    assert len(reps) == 10 and all(r["status"] == "pass" for r in reps)
    assert not [r for r in report["checks"] if r["status"] == "skip"]
    (pentagon,) = [r for r in report["checks"]
                   if r["check_id"] == "d(s3).gns.w.pentagon"]
    assert pentagon["status"] == "pass" and pentagon["tolerance"] is None


# -- mutants of the exact inputs of the Kac-collapsed records ---------------


def _kac_records(dd) -> dict[str, object]:
    """Kac-collapsed records by section-qualified id, e.g. 'calc.power-one'."""
    return {f"{section}.{r.check_id.rsplit(f'.{section}.', 1)[1]}": r
            for section, recs in G.check_kac_collapse(dd).items()
            for r in recs}


def _named(affected) -> set[str]:
    """Section-qualified ids of the records naming an affected operator."""
    return {f"{section}.{check_id}"
            for section, rows in G.KAC_RECORDS.items()
            for check_id, _, ops in rows if set(ops) & set(affected)}


# (fault of the Haar data, operators it makes non-identity, records with
# an own identity that it also breaks)
HAAR_FAULTS = (
    (Fault("haar.sigma", "antipode"), {"nabla"}, set()),
    (Fault("haar.delta", "double"), {"delta", "delta_prime", "m"},
     {"modgroup.sigma-hat.integer"}),
    (Fault("dual_haar.delta", "double"), {"delta_hat", "delta_hat_prime"},
     set()))


@pytest.mark.parametrize("name", ["c_s3", "d_z3"])
def test_mutated_exact_input_fails_the_records_naming_it(duality_cache,
                                                         name):
    clean = duality_cache(name)
    for fault, affected, own in HAAR_FAULTS:
        label, dd = fault.name, fault.apply(clean)
        ident = LinMap.identity(dd.source.A)
        maps = G.modular_maps(dd)
        assert {k for k, x in maps.items() if x != ident} == affected, label
        named = _named(affected)
        assert named, label
        for key, rec in _kac_records(dd).items():
            if key in named:
                assert rec.status == "fail", (label, key)
                assert rec.tolerance is None, (label, key)
                assert any(f"operator {op}:" in rec.witness
                           for op in affected), (label, key, rec.witness)
            elif key in own:
                assert rec.status == "fail", (label, key)
                assert rec.witness.startswith("n = "), (label, rec.witness)
            else:
                assert rec.status == "pass", (label, key, rec.witness)


@pytest.mark.parametrize("name", ["taft3", "sweedler"])
def test_non_kac_data_fails_every_kac_record(duality_cache, name):
    # S^2 != id: N, M and nabla_hat are not the identity
    dd = duality_cache(name)
    maps = G.modular_maps(dd)
    for op in ("n", "m", "nabla_hat"):
        assert maps[op] != LinMap.identity(dd.source.A), op
    records = _kac_records(dd)
    assert len(records) == 52
    passing = [key for key, r in records.items() if r.status != "fail"]
    assert passing == [], passing


# -- mutants of the exact inputs of the representation and W laws -----------


# the 21 records decided in coordinates, by family-qualified id
MOVED = (
    "reps.m.homomorphism", "reps.m.star", "reps.m.faithful",
    "reps.lambda.homomorphism", "reps.lambda.star", "reps.slice.left",
    "reps.slice.right", "reps.slice.left-span", "reps.slice.right-span",
    "w.unitary", "w.implements-galois", "w.represented-multiplier",
    "w.pentagon", "w.f-isometry", "w.dual-rep-transport",
    "w.cstar-identification", "coprod.implemented", "coprod.density.right",
    "coprod.density.left", "weight.phi.vector-state", "weight.invariance")


# the two laws of the frame itself, exact positivity tests on G
FRAME_RECORDS = ("reps.lambda.inner-product", "weight.kms.bound")


def _moved_records(mw: AlgMultUnitary) -> dict[str, object]:
    coprod = G.check_coproduct_implementation(mw)
    reps = G.check_regular_reps(mw)
    records = (reps + G.check_w_properties(mw, reps[-1])
               + coprod + G.check_invariance_and_kms(mw.duality, coprod[0]))
    out = {r.check_id.split(".gns.")[1]: r for r in records}
    assert set(out) == set(MOVED) | set(FRAME_RECORDS)
    return {key: out[key] for key in MOVED}


# (map label, fault of the AlgMultUnitary) for single-entry faults of w,
# of the model's mult and coprod, of the dual's mult and of the dual Gram
# matrix: the middle entry by column raised or lowered, or the first
# unstored entry of column 0 planted.  Each is applied after the chain is
# built, so a faulted model keeps its clean w.
W_FAULTS = [(label, Fault(artifact, change, position))
            for change, position in (("raise", "sorted"), ("lower", "sorted"),
                                     ("plant", "free:0"))
            for label, artifact in (("w", "w"),
                                    ("mult", "duality.source.mult"),
                                    ("coprod", "duality.source.coprod"),
                                    ("dual mult", "duality.dual.mult"))] + [
    ("dual gram", Fault("duality.dual_haar.gram", "raise", "sorted"))]


# records each map's mutants must fail on both models, with entry witnesses
REQUIRED = {"w": {"w.unitary", "reps.slice.left", "reps.slice.right",
                  "w.represented-multiplier"},
            "coprod": {"coprod.implemented"},
            "mult": {"reps.m.homomorphism"}}


@pytest.mark.parametrize("name", ["c_s3", "d_z3"])
def test_mutants_fail_the_exact_representation_and_w_records(gns_cache,
                                                             name):
    g = gns_cache(name)
    clean = _moved_records(g.mw)
    assert all(r.status == "pass" and r.tolerance is None
               for r in clean.values())
    failed: dict[str, set[str]] = {}
    for label, fault in W_FAULTS:
        for key, rec in _moved_records(fault.apply(g.mw)).items():
            assert rec.tolerance is None, (label, key)
            if rec.status == "fail":
                # an identity names its worst entry, a span law its ranks
                assert "entry (" in rec.witness or "rank" in rec.witness, \
                    (label, key, rec.witness)
                if "entry (" in rec.witness:
                    failed.setdefault(label, set()).add(key)
    for label, keys in REQUIRED.items():
        assert keys <= failed.get(label, set()), (label, failed.get(label))


def test_every_moved_record_fails_under_some_mutant(gns_cache):
    # across c_s3 and d_z3 every moved record meets a mutant that fails it;
    # m.faithful fails by rank (lowering an idempotent of C(S3) to 0), the
    # others with an entry witness
    caught = set()
    for name in ("c_s3", "d_z3"):
        g = gns_cache(name)
        for label, fault in W_FAULTS:
            caught |= {key for key, rec in
                       _moved_records(fault.apply(g.mw)).items()
                       if rec.status == "fail"}
    assert caught == set(MOVED), set(MOVED) - caught


def test_invariance_reads_the_implemented_record(gns_cache, monkeypatch):
    # weight.invariance reuses coprod.implemented: one _implemented call per
    # suite, and a failure of the implementation is the invariance record's,
    # with the same witness and residual
    g = gns_cache("c_s3")
    calls = []
    implemented = G._implemented

    def spy(mw):
        calls.append(mw.duality.source.name)
        return implemented(mw)

    monkeypatch.setattr(G, "_implemented", spy)
    records = {r.check_id.split(".gns.")[1]: r for r in G.analytic_suite(g)}
    assert calls == [g.mw.duality.source.name]
    assert records["weight.invariance"].status == "pass"

    moved = _moved_records(
        Fault("w", "raise", "sorted").apply(g.mw))
    impl, inv = moved["coprod.implemented"], moved["weight.invariance"]
    assert impl.status == inv.status == "fail"
    assert (inv.witness, inv.residual) == (impl.witness, impl.residual)


# (record, the decided record whose law it restates)
RESTATED = (("w.dual-rep-transport", "w.f-isometry"),
            ("w.cstar-identification", "reps.slice.right-span"))


@pytest.mark.parametrize("name", ["c_s3", "d_z3"])
def test_restated_laws_copy_the_records_they_restate(gns_cache, name):
    # on the clean data and on every mutant, a record that restates a
    # decided law has that record's status, residual and witness
    g = gns_cache(name)
    failed = set()
    for label, fault in [("clean", None), *W_FAULTS]:
        records = _moved_records(fault.apply(g.mw) if fault
                                 else g.mw)
        for key, source in RESTATED:
            got, want = records[key], records[source]
            assert (got.status, got.residual, got.witness) \
                == (want.status, want.residual, want.witness), (label, key)
            if got.status == "fail":
                failed.add(key)
    assert failed == {key for key, _ in RESTATED}


def _no_frame():
    raise CheckFailure("no frame")


def test_checker_copies_a_returned_record():
    ck = Checker("t")
    decided = [ck.exact("pass", "", lambda: True),
               ck.exact("value", "", lambda: Cyc.rational(3)),
               ck.exact("none", "", _no_frame)]
    assert [(r.status, r.residual, r.witness) for r in decided] == [
        ("pass", 0.0, None), ("fail", 3.0, "value 3"),
        ("fail", None, "no frame")]
    for rec in decided:
        copy = ck.exact(f"copy-{rec.check_id}", "", lambda rec=rec: rec)
        assert (copy.status, copy.residual, copy.witness) \
            == (rec.status, rec.residual, rec.witness)


def test_verify_builds_each_gns_defect_once(monkeypatch):
    """One ``verify c_s3 --suite all`` builds the unitarity defect, the
    slices of both legs, the Fourier defect and the right-span ranks once
    each: every other record that needs them reads the memo or the
    record."""
    counts, built = collections.Counter(), {}

    def counted(key, build):
        def spy(*args):
            counts[key] += 1
            built[key] = out = build(*args)
            return out
        return spy

    for key in ("gram_defect", "inverse_defect", "slices"):
        memo = vars(AlgMultUnitary)[key]
        monkeypatch.setattr(memo, "func", counted(key, memo.func))
    monkeypatch.setattr(G, "_fourier_isometry",
                        counted("fourier", G._fourier_isometry))
    require_span = G._require_span

    def span(expect, *families):
        if "slices" in built and families[0] is built["slices"][0]:
            counts["right-span"] += 1
        return require_span(expect, *families)

    monkeypatch.setattr(G, "_require_span", span)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "c_s3", "--suite", "all"]) == 0
    assert counts == {"gram_defect": 1, "slices": 1, "fourier": 1,
                      "right-span": 1, "inverse_defect": 1}


def test_verify_forms_each_w_product_and_kac_defect_once(monkeypatch):
    """One ``verify c_s3 --suite all`` forms w w^-1 once, for the refusal
    of ``build_alg_mult_unitary`` and ``w.implements-galois`` alike, and
    w^-1 w never; and it forms X - 1 once for each of the eight modular
    operators X, however many Kac records name X."""
    products, differences, built, maps = [], [], [], []
    matmul, sub = LinMap.__matmul__, LinMap.__sub__
    build, modular_maps = duality.build_alg_mult_unitary, G.modular_maps

    def spy_matmul(a, b):
        if a.cod == a.dom == b.cod == b.dom and len(a.dom) == 2:
            products.append((a, b))  # holds both, so no id is reused
        return matmul(a, b)

    def spy_sub(a, b):
        differences.append((a, b))
        return sub(a, b)

    def spy_build(dd):
        built.append(out := build(dd))
        return out

    def spy_maps(dd):
        maps.append((out := modular_maps(dd), dd.source.idA))
        return out

    monkeypatch.setattr(LinMap, "__matmul__", spy_matmul)
    monkeypatch.setattr(LinMap, "__sub__", spy_sub)
    monkeypatch.setattr(duality, "build_alg_mult_unitary", spy_build)
    monkeypatch.setattr(G, "modular_maps", spy_maps)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "c_s3", "--suite", "all"]) == 0
    (mw,) = built
    assert sum(a is mw.w and b is mw.w_inv for a, b in products) == 1
    assert sum(a is mw.w_inv and b is mw.w for a, b in products) == 0
    ((ops, one),) = maps
    assert len(ops) == 8
    assert sum(b is one and any(a is x for x in ops.values())
               for a, b in differences) == 8
