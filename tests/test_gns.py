"""Tests for the GNS realization and the analytic layer built on it."""

import contextlib
import dataclasses
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from qgcheck import cli
from qgcheck import gns as G
from qgcheck.duality import build_alg_mult_unitary, build_dual
from qgcheck.errors import TierRefusal
from qgcheck.linalg import LinMap, Vec
from qgcheck.models import GroupTable
from qgcheck.report import CheckRecord, ensure
from qgcheck.scalars import Cyc

FULL_SUITE = ["trivial", "c_z2", "c_z3", "c_s3", "cg_z2", "cg_s3", "d_z3"]


def run_all_checks(g):
    return G.analytic_suite(g)


def test_refusal_scaling_constant(sweedler, taft3):
    for model in (sweedler, taft3):
        with pytest.raises(TierRefusal, match="mu"):
            G.build_gns(model)


def test_refusal_non_positive_gram(model_cache):
    # negating the involution negates the Gram matrix phi(a* b)
    m = model_cache("c_z2")
    spoiled = dataclasses.replace(
        m, invol=m.invol.scale(m.scalar(-1)), positive=False)
    with pytest.raises(TierRefusal,
                       match="Gram matrix of phi is not Hermitian positive "
                             "definite"):
        G.build_gns(spoiled)


def assert_identity_maps(dd):
    """Every modular operator's exact coordinate map is the identity."""
    ident = LinMap.identity(dd.source.A)
    for name, x in G.modular_maps(dd).items():
        assert x == ident, name


def test_trivial_model(gns_cache):
    # w = 1 exactly, so W = (Lambda (x) Lambda) w (Lambda (x) Lambda)^-1 = 1
    g = gns_cache("trivial")
    assert g.model.dim == 1
    assert build_alg_mult_unitary(g.model).w == LinMap.identity(g.model.AA)
    assert_identity_maps(g.dual)
    ensure(run_all_checks(g))


def test_function_algebra_gram_is_normalized_counting(gns_cache):
    # phi is the normalized counting measure, so the basis of indicator
    # functions is orthogonal with norm^2 = 1/|G|
    g = gns_cache("c_z2")
    half = Cyc.rational(Fraction(1, 2))
    assert g.dual.haar.gram == g.model.idA.scale(half)


def test_w_is_translation_permutation_on_function_algebra(gns_cache):
    # on C(S3) the Gram matrix is I/6, so the frame is a scalar and W = w,
    # which sends e_a (x) e_b to e_a (x) e_ab
    g = gns_cache("c_s3")
    m = g.model
    assert g.dual.haar.gram == m.idA.scale(Cyc.rational(Fraction(1, 6)))
    table = GroupTable.symmetric(3)
    w = build_alg_mult_unitary(m).w
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
    assert_identity_maps(g.dual)
    records = [r for recs in G.check_kac_collapse(g.dual).values()
               for r in recs]
    assert len(records) == 52
    assert all(r.status == "pass" and r.tolerance is None for r in records)


def test_left_slice_oracle_c_z2(gns_cache):
    # on C(Z2): (iota (x) omega_{L e_x, L e_y})(W) = (1/2) m(e_{x+y}); the
    # slice is Lambda B Lambda^-1 for the block B of (1 (x) G) w at (x, y),
    # so B = (1/2) L_{e_{x+y}}
    g = gns_cache("c_z2")
    m = g.model
    slices = G._slices(g.dual, build_alg_mult_unitary(m), 1)
    half = Cyc.rational(Fraction(1, 2))
    for x in range(2):
        for y in range(2):
            lxy = m.lmul(m.basis_vec((x + y) % 2))
            want = Vec(m.AA, {i * 2 + j: v for i, j, v in lxy.entries()})
            assert slices.column((x, y)) == half * want


def test_coproduct_of_grouplike_basis(gns_cache):
    # in a group algebra W^H (1 (x) m(u_g)) W = m(u_g) (x) m(u_g), that is
    # w^H (G (x) G)(1 (x) L_g) w = (G (x) G)(L_g (x) L_g)
    g = gns_cache("cg_z2")
    m = g.model
    w = build_alg_mult_unitary(m).w
    gg = g.dual.haar.gram.tensor(g.dual.haar.gram)
    for k in range(2):
        lk = m.lmul(m.basis_vec(k))
        assert w.adjoint() @ gg @ m.idA.tensor(lk) @ w == gg @ lk.tensor(lk)


def test_complex_power_multipliers(gns_cache):
    # delta = 1 and delta_hat = 1 exactly, so every power of delta is the
    # identity multiplier and the powers records pass exactly
    for name in ("c_s3", "d_z3"):
        g = gns_cache(name)
        sections = G.check_kac_collapse(g.dual)
        for z in (0.5, 1j, 1 + 1j):
            records = ensure(sections[f"powers[z={z}]"])
            assert len(records) == 4
            assert all(r.tolerance is None for r in records)


def test_rho_is_trivial_on_kac_models(gns_cache):
    # N acts as S^2, which is the identity on a Kac model
    g = gns_cache("c_s3")
    s = g.model.antipode
    assert s @ s == LinMap.identity(g.model.A)
    assert G.modular_maps(g.dual)["n"] == s @ s
    modgroup = G.check_kac_collapse(g.dual)["modgroup"]
    rho = [r for r in modgroup if ".rho." in r.check_id]
    assert len(rho) == 2 and all(r.status == "pass" for r in rho)


def test_power_calculus_failure_names_operator(model_cache):
    # on taft3 (S^2 != id) the calculus records fail at the first
    # non-identity operator, named in the witness with its worst entry
    dd = build_dual(model_cache("taft3"))
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
    lam = np.linalg.cholesky(g.dual.haar.gram.to_numpy()).conj().T
    return lam, np.linalg.inv(lam)


def test_kms_bound_is_equality_on_group_algebra(gns_cache):
    # with an orthonormal group-element basis both sides equal 1; the
    # exact records put sigma_{i/2} = id, and the exact row test meets
    # its bound s_i = 1 with equality
    g = gns_cache("cg_s3")
    assert G.modular_maps(g.dual)["nabla"] == LinMap.identity(g.model.A)
    m, gram = g.model, g.dual.haar.gram
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
    g = gns_cache(name)
    dd, mw = g.dual, build_alg_mult_unitary(g.model)
    gram, k = dd.haar.gram, g.model.dim // 2

    def record(mutant):
        haar = dataclasses.replace(dd.haar, gram=mutant)
        assert haar.gram_positive
        (rec,) = [r for r in G.check_regular_reps(
                      dataclasses.replace(dd, haar=haar), mw)
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
    m, gram = g.model, g.dual.haar.gram
    for i in range(m.dim):
        s = G._kms_scale(m, gram, i)
        assert G._kms_row_holds(m, gram, i, s), i
        assert not G._kms_row_holds(m, gram, i, s + 1), i

    scale = G._kms_scale
    monkeypatch.setattr(G, "_kms_scale",
                        lambda m, gram, i: scale(m, gram, i) + 1)
    implemented = CheckRecord("coprod.implemented", "", "pass")
    (rec,) = [r for r in G.check_invariance_and_kms(g.dual, implemented)
              if r.check_id.endswith(".kms.bound")]
    assert rec.status == "fail" and rec.tolerance is None
    assert rec.witness.startswith("row 0: "), rec.witness


def test_fourier_isometry_constant(gns_cache):
    # Gram = I/6 while the dual basis vectors carry an extra 1/6, giving a
    # dual Gram of I/36 and an isometry constant of 1/6
    g = gns_cache("c_s3")
    gram, dual_gram = g.dual.haar.gram, g.dual.dual_haar.gram
    sixth = Cyc.rational(Fraction(1, 6))

    def trace(t):
        return sum((t.entry(i, i) for i in range(g.model.dim)), Cyc.zero())

    assert trace(dual_gram) / trace(gram) == sixth
    assert dual_gram == gram.scale(sixth)
    assert dual_gram == g.model.idA.scale(sixth * sixth)


def test_modular_conjugation_reduces_to_involution(gns_cache):
    # sigma = id exactly, so nabla = I and the polar part J equals T, the
    # antilinear map Lambda(f) -> Lambda(f*), whose linear part must then
    # be unitary
    g = gns_cache("c_s3")
    assert g.dual.haar.sigma == LinMap.identity(g.model.A)
    lam, frame = _float_frame(g)
    invol, eye = g.model.invol.to_numpy(), np.eye(g.model.dim)
    t_mat = lam @ invol @ np.conj(frame)
    assert np.allclose(t_mat.conj().T @ t_mat, eye, rtol=0, atol=ORACLE_TOL)
    assert np.allclose(t_mat @ t_mat.conj().T, eye, rtol=0, atol=ORACLE_TOL)
    for k in range(g.model.dim):
        got = t_mat @ np.conj(lam[:, k])
        want = lam @ invol[:, k]
        assert np.allclose(got, want, rtol=0, atol=ORACLE_TOL)


def test_unitary_antipode_reduces_to_antipode(gns_cache):
    # M = rmul(delta) S^2 is the identity, so tau is trivial and R = S; the
    # four r.* records are exact
    g = gns_cache("c_s3")
    assert G.modular_maps(g.dual)["m"] == LinMap.identity(g.model.A)
    records = G.check_kac_collapse(g.dual)["weight"]
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


def _mutants(model):
    """(label, mutated Duality, operators the mutation makes non-identity,
    records with an own identity that the mutation also breaks)."""
    dd = build_dual(model)
    haar, dh = dd.haar, dd.dual_haar
    two = model.scalar(2)
    sigma_s = dataclasses.replace(haar, sigma=model.antipode)
    delta_2 = dataclasses.replace(haar, delta=two * haar.delta)
    dual_2 = dataclasses.replace(dh, delta=two * dh.delta)
    return [
        ("sigma = S", dataclasses.replace(dd, haar=sigma_s), {"nabla"}, set()),
        ("delta doubled", dataclasses.replace(dd, haar=delta_2),
         {"delta", "delta_prime", "m"}, {"modgroup.sigma-hat.integer"}),
        ("delta_hat doubled", dataclasses.replace(dd, dual_haar=dual_2),
         {"delta_hat", "delta_hat_prime"}, set()),
    ]


@pytest.mark.parametrize("name", ["c_s3", "d_z3"])
def test_mutated_exact_input_fails_the_records_naming_it(model_cache, name):
    for label, dd, affected, own in _mutants(model_cache(name)):
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
def test_non_kac_data_fails_every_kac_record(model_cache, name):
    # S^2 != id: N, M and nabla_hat are not the identity
    dd = build_dual(model_cache(name))
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


def _moved_records(dd, mw) -> dict[str, object]:
    coprod = G.check_coproduct_implementation(dd, mw)
    records = (G.check_regular_reps(dd, mw) + G.check_w_properties(dd, mw)
               + coprod + G.check_invariance_and_kms(dd, coprod[0]))
    out = {r.check_id.split(".gns.")[1]: r for r in records}
    assert set(out) == set(MOVED) | set(FRAME_RECORDS)
    return {key: out[key] for key in MOVED}


def _single_entry(t: LinMap, kind: str) -> LinMap:
    """t with one entry changed: its middle stored entry raised or lowered
    by 1, or the first unstored entry of its first column planted as 1."""
    if kind == "planted":
        col = t.cols[min(t.cols)]
        i, j = next(i for i in range(t.cod_dim) if i not in col), min(t.cols)
        step = 1
    else:
        i, j, _ = sorted(t.entries(), key=lambda e: (e[1], e[0]))[t.nnz // 2]
        step = 1 if kind == "raised" else -1
    return t + LinMap.from_entries(t.dom, t.cod, [(i, j, step)])


def _w_mutants(g):
    """(map label, mutated Duality, mutated AlgMultUnitary) for single-entry
    mutants of w, of the model's mult and coprod, of the dual's mult and of
    the dual Gram matrix.  A mutated model cannot build its own w (the
    Galois inverse check refuses it), so the model's w rides along."""
    dd, mw = g.dual, build_alg_mult_unitary(g.model)
    m, dm, dh = dd.source, dd.dual, dd.dual_haar
    rep = dataclasses.replace
    for kind in ("raised", "lowered", "planted"):
        yield "w", dd, rep(mw, w=_single_entry(mw.w, kind))
        yield "mult", rep(dd, source=rep(
            m, mult=_single_entry(m.mult, kind))), mw
        yield "coprod", rep(dd, source=rep(
            m, coprod=_single_entry(m.coprod, kind))), mw
        yield "dual mult", rep(dd, dual=rep(
            dm, mult=_single_entry(dm.mult, kind))), mw
    yield "dual gram", rep(dd, dual_haar=rep(
        dh, gram=_single_entry(dh.gram, "raised"))), mw


# records each map's mutants must fail on both models, with entry witnesses
REQUIRED = {"w": {"w.unitary", "reps.slice.left", "reps.slice.right",
                  "w.represented-multiplier"},
            "coprod": {"coprod.implemented"},
            "mult": {"reps.m.homomorphism"}}


@pytest.mark.parametrize("name", ["c_s3", "d_z3"])
def test_mutants_fail_the_exact_representation_and_w_records(gns_cache,
                                                             name):
    g = gns_cache(name)
    clean = _moved_records(g.dual, build_alg_mult_unitary(g.model))
    assert all(r.status == "pass" and r.tolerance is None
               for r in clean.values())
    failed: dict[str, set[str]] = {}
    for label, dd, mw in _w_mutants(g):
        for key, rec in _moved_records(dd, mw).items():
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
        for label, dd, mw in _w_mutants(g):
            caught |= {key for key, rec in _moved_records(dd, mw).items()
                       if rec.status == "fail"}
    assert caught == set(MOVED), set(MOVED) - caught


def test_invariance_reads_the_implemented_record(gns_cache, monkeypatch):
    # weight.invariance reuses coprod.implemented: one _implemented call per
    # suite, and a failure of the implementation is the invariance record's,
    # with the same witness and residual
    g = gns_cache("c_s3")
    calls = []
    implemented = G._implemented

    def spy(dd, mw):
        calls.append(dd.source.name)
        return implemented(dd, mw)

    monkeypatch.setattr(G, "_implemented", spy)
    records = {r.check_id.split(".gns.")[1]: r for r in G.analytic_suite(g)}
    assert calls == [g.model.name]
    assert records["weight.invariance"].status == "pass"

    mw = build_alg_mult_unitary(g.model)
    bad = dataclasses.replace(mw, w=_single_entry(mw.w, "raised"))
    moved = _moved_records(g.dual, bad)
    impl, inv = moved["coprod.implemented"], moved["weight.invariance"]
    assert impl.status == inv.status == "fail"
    assert (inv.witness, inv.residual) == (impl.witness, impl.residual)
