"""Morphisms, dual morphisms, the expectation and the subgroup certificate."""

import contextlib
import dataclasses
import functools
import io

import numpy as np
import pytest

from qgcheck import cli, subgroups
from qgcheck.errors import ModelError
from qgcheck.hopf import QGModel, validate_model
from qgcheck.linalg import LinMap, inverse
from qgcheck.models import GroupTable, build_function_algebra, builtin
from qgcheck.modular import solve_haar
from qgcheck.report import _diff_witness, ensure
from qgcheck.scalars import Cyc
from faults import (MODELS_DIR, every_entry, part_fault, restrict_a3_file,
                    restrict_d6_s3, restrict_s4_a4)
from qgcheck.subgroups import (
    QGMorphism,
    build_dual_morphism,
    certify_vaes,
    check_dual_morphism,
    check_expectation,
    check_functoriality,
    compose_morphisms,
    counit_morphism,
    identity_morphism,
    restriction_morphism,
    validate_morphism,
)


def first_of_order(table, order):
    """Index of the first element with the given order."""
    for i in range(1, table.n):
        p, o = i, 1
        while p != 0:
            p, o = table.mul(p, i), o + 1
        if o == order:
            return i
    raise AssertionError(f"no element of order {order} in {table.name}")


@pytest.fixture(scope="module")
def s3():
    return GroupTable.symmetric(3)


@pytest.fixture(scope="module")
def mor_a3(s3):
    i = first_of_order(s3, 3)
    return restriction_morphism(s3, [0, i, s3.mul(i, i)])


@pytest.fixture(scope="module")
def mor_z2(s3):
    return restriction_morphism(s3, [0, first_of_order(s3, 2)])


def failed_ids(records):
    return {r.check_id.split(".")[-1] for r in records if r.status == "fail"}


def test_restriction_morphisms_are_valid(mor_a3, mor_z2):
    ensure(validate_morphism(mor_a3))
    ensure(validate_morphism(mor_z2))
    assert mor_a3.target.dim == 3
    assert mor_z2.target.dim == 2


def test_counit_and_identity_morphisms_are_valid():
    model = builtin("c_s3")
    ensure(validate_morphism(counit_morphism(model)))
    ensure(validate_morphism(identity_morphism(model)))


def test_non_subgroup_indices_raise(s3):
    i = first_of_order(s3, 3)
    with pytest.raises(ModelError):
        restriction_morphism(s3, [0, i])
    with pytest.raises(ModelError):
        restriction_morphism(s3, [i, s3.mul(i, i)])


def test_index_collapse_fails_multiplicativity():
    source = build_function_algebra(GroupTable.cyclic(4))
    target = build_function_algebra(GroupTable.cyclic(2))
    one = source.scalar(1)
    pi = LinMap.from_entries(source.A, target.A,
                             [(j % 2, j, one) for j in range(4)])
    bad = QGMorphism(source, target, pi)
    failed = failed_ids(validate_morphism(bad))
    assert {"multiplicative", "unital"} <= failed
    assert "star" not in failed


def test_non_closed_relabeling_fails_named_axioms(s3):
    source = build_function_algebra(s3)
    target = build_function_algebra(GroupTable.cyclic(2))
    i = first_of_order(s3, 3)
    one = source.scalar(1)
    pi = LinMap.from_entries(source.A, target.A,
                             [(0, 0, one), (1, i, one)])
    bad = QGMorphism(source, target, pi)
    failed = failed_ids(validate_morphism(bad))
    assert "coproduct" in failed and "antipode" in failed
    assert {"unital", "multiplicative", "star"}.isdisjoint(failed)


def test_dual_morphism_is_index_scaled_inclusion(s3, mor_a3, mor_z2):
    for mor in (mor_a3, mor_z2):
        dm = build_dual_morphism(mor)
        old = [s3.elements.index(lab[len("d_"):]) for lab in mor.target.basis]
        index = s3.n // mor.target.dim
        scale = mor.source.scalar(index)
        expected = LinMap.from_entries(
            mor.target.A, mor.source.A,
            [(g, new, scale) for new, g in enumerate(old)])
        assert (dm.pi_hat - expected).is_zero()


def test_dual_of_counit_is_convolution_unit():
    model = builtin("c_s3")
    dm = build_dual_morphism(counit_morphism(model))
    image = dm.pi_hat(builtin("trivial").unit)
    assert (image - dm.source_duality.dual.unit).is_zero()
    assert (image - model.element({"d_012": 6})).is_zero()


def test_dual_of_identity_is_identity():
    model = builtin("c_s3")
    dm = build_dual_morphism(identity_morphism(model))
    assert (dm.pi_hat - model.idA).is_zero()


def test_dual_morphism_laws(mor_a3, mor_z2):
    for mor in (mor_a3, mor_z2,
                counit_morphism(builtin("c_s3")),
                identity_morphism(builtin("c_s3"))):
        ensure(check_dual_morphism(build_dual_morphism(mor)))


def test_dual_morphism_laws_on_group_algebra():
    mor = counit_morphism(builtin("cg_s3"))
    ensure(validate_morphism(mor))
    ensure(check_dual_morphism(build_dual_morphism(mor)))


def test_dual_morphism_laws_off_the_positive_layer():
    mor = counit_morphism(builtin("taft3"))
    ensure(validate_morphism(mor))
    ensure(check_dual_morphism(build_dual_morphism(mor)))


def test_expectation(mor_a3):
    records = check_expectation(build_dual_morphism(mor_a3))
    ensure(records)
    caveat = [r for r in records if r.check_id.endswith("involution-caveat")]
    assert caveat and caveat[0].status == "skip"
    assert "does" in caveat[0].witness


def composed_bimodule(dm):
    """The bimodule difference composed on the triple tensor space, as a
    test oracle for the streamed record."""
    mor = dm.morphism
    dg, dh = dm.source_duality.dual, dm.target_duality.dual
    id_g, id_h = mor.source.idA, mor.target.idA
    lhs = (mor.pi @ dg.mult @ dg.mult.tensor(id_g)
           @ dm.pi_hat.tensor(id_g).tensor(dm.pi_hat))
    rhs = (dh.mult @ dh.mult.tensor(id_h)
           @ id_h.tensor(mor.pi).tensor(id_h))
    return lhs - rhs


BIMODULE_MAKERS = [restrict_a3_file, restrict_d6_s3, restrict_s4_a4]


@functools.cache
def passing_dual_morphism(make):
    """build_dual_morphism(make()), built once per maker; its composed
    bimodule difference is zero."""
    dm = build_dual_morphism(make())
    assert composed_bimodule(dm).is_zero()
    return dm


@pytest.mark.parametrize("make", BIMODULE_MAKERS)
@pytest.mark.parametrize("change", [
    "negate", "zero", "move", "pi-raise", "pi-drop", "pi-plant",
    "conv_g-raise", "conv_g-drop", "conv_g-plant", "conv_g-left",
    "conv_g-right",
    "conv_h-raise", "conv_h-drop", "conv_h-plant"])
def test_streamed_bimodule_matches_composed_oracle(make, change):
    """The bimodule record, decided through its one-sided laws, has the
    status, residual and witness of the composed (k, n, k) difference."""
    dm = passing_dual_morphism(make)
    record = check_expectation(dm)[0]
    assert record.check_id.endswith(".bimodule")
    assert record.status == "pass" and record.residual == 0.0
    bad = part_fault(change).apply(dm)
    residual, witness = _diff_witness(composed_bimodule(bad))
    record = check_expectation(bad)[0]
    assert (record.residual, record.witness) == (residual, witness)
    assert record.status == ("fail" if residual else "pass")
    if "-" not in change:
        # every change of pi_hat fails
        assert record.status == "fail" and witness.startswith("entry (")


@pytest.mark.parametrize("make", BIMODULE_MAKERS)
def test_expectation_pass_path_builds_no_triple_column_map(monkeypatch, make):
    """A passing bimodule record is decided on the one-sided laws: no map
    with a (k, n, k) domain is built inside ``check_expectation``."""
    dm = passing_dual_morphism(make)
    doms = []
    real_of, real_init = LinMap._of.__func__, LinMap.__init__

    def of(cls, dom, cod, cols):
        doms.append(tuple(dom))
        return real_of(cls, dom, cod, cols)

    def init(self, dom, cod, cols=None):
        doms.append(tuple(dom))
        real_init(self, dom, cod, cols)

    monkeypatch.setattr(LinMap, "_of", classmethod(of))
    monkeypatch.setattr(LinMap, "__init__", init)
    records = check_expectation(dm)
    monkeypatch.undo()
    assert records[0].status == "pass"
    n, k = dm.morphism.source.dim, dm.morphism.target.dim
    assert doms and (k, n, k) not in doms
    assert all(len(dom) <= 2 for dom in doms), set(doms)


def test_vaes_certificate(mor_a3, mor_z2):
    for mor in (mor_a3, mor_z2, counit_morphism(builtin("c_s3"))):
        dm = build_dual_morphism(mor)
        records = certify_vaes(dm, check_dual_morphism(dm))
        ensure(records)
        by_id = {r.check_id.split(".vaes.")[-1]: r for r in records}
        assert by_id["preimage-independence"].status == "pass"
        assert by_id["represented"].status == "pass"
        assert by_id["norm-transport"].status == "pass"


# the float oracle's bounds
ORACLE_TOL = 1e-10
ORACLE_SPECTRAL = 100 * ORACLE_TOL

VAES_FLOAT_IDS = ("functional-identity", "represented",
                  "represented-injective", "norm-transport")


def float_vaes_statuses(mor, dm):
    """The four representation-level laws of certify_vaes, in floats.

    The float oracle: minimal-norm preimages from pinv, the left regular
    representation lambda(v) = lam L_v lam^-1 on the Cholesky frame
    lam^H lam = G of the Gram form, a numeric rank and spectral norms,
    each against ORACLE_TOL or, for the rank and the norms, 100 times it.
    """
    src, tgt = mor.source, mor.target
    dg, dh = dm.source_duality.dual, dm.target_duality.dual
    n, k = src.dim, tgt.dim
    pi, hat = mor.pi.to_numpy(), dm.pi_hat.to_numpy()
    conv_g = dg.mult.to_numpy().reshape(n, n, n)
    conv_h = dh.mult.to_numpy().reshape(k, k, k)
    eps_g = src.counit.to_numpy().reshape(n)
    eps_h = tgt.counit.to_numpy().reshape(k)
    pinv, eye = np.linalg.pinv(pi), np.eye(k)
    gap = max(np.linalg.norm(pi @ pinv - eye, axis=0).max(), max(
        abs(eps_h @ conv_h[:, x, a] - eps_g @ np.einsum(
            "kij,i,j->k", conv_g, hat[:, x], pinv[:, a]))
        for x in range(k) for a in range(k)))
    statuses = {"functional-identity": gap <= 10 * ORACLE_TOL}

    def regular(haar, conv):
        lam = np.linalg.cholesky(haar.gram.to_numpy()).conj().T
        frame = np.linalg.inv(lam)
        return lambda v: lam @ np.einsum("kij,i->kj", conv, v) @ frame

    rep_g = regular(dm.source_duality.haar, conv_g)
    rep_h = regular(dm.target_duality.haar, conv_h)
    rep = [rep_g(hat[:, x]) for x in range(k)]
    worst = np.linalg.norm(rep_g(hat @ dh.unit.to_numpy()) - np.eye(n))
    for x in range(k):
        bar = dh.bar(tgt.basis_vec(x)).to_numpy()
        worst = max(worst, np.linalg.norm(rep_g(hat @ bar) - rep[x].conj().T))
        for y in range(k):
            worst = max(worst, np.linalg.norm(
                rep_g(hat @ conv_h[:, x, y]) - rep[x] @ rep[y]))
    statuses["represented"] = worst <= ORACLE_TOL
    stack = np.stack([m.reshape(-1) for m in rep], axis=1)
    statuses["represented-injective"] = k - np.linalg.matrix_rank(
        stack, tol=ORACLE_SPECTRAL) <= ORACLE_TOL
    statuses["norm-transport"] = max(
        abs(np.linalg.norm(rep[x], 2) - np.linalg.norm(rep_h(eye[:, x]), 2))
        for x in range(k)) <= ORACLE_SPECTRAL
    return {c: "pass" if ok else "fail" for c, ok in statuses.items()}


def non_surjective_embedding():
    source = build_function_algebra(GroupTable.cyclic(2))
    target = build_function_algebra(GroupTable.cyclic(4))
    one = source.scalar(1)
    pi = LinMap.from_entries(source.A, target.A,
                             [(i, i % 2, one) for i in range(4)])
    return QGMorphism(source, target, pi)


def exact_vaes_statuses(dm):
    """The four records' statuses from certify_vaes; each is exact."""
    records = certify_vaes(dm, check_dual_morphism(dm))
    by_id = {r.check_id.split(".vaes.")[-1]: r for r in records}
    assert all(by_id[c].tolerance is None for c in VAES_FLOAT_IDS)
    return {c: by_id[c].status for c in VAES_FLOAT_IDS}


def test_exact_vaes_records_agree_with_the_float_oracle(mor_a3, mor_z2):
    """Exact records give the float oracle's statuses; the mutants of the
    A3 restriction give the statuses pinned below."""
    zero = QGMorphism(mor_a3.source, mor_a3.target,
                      LinMap.zero(mor_a3.pi.dom, mor_a3.pi.cod))
    for mor in (mor_a3, mor_z2, counit_morphism(builtin("c_s3")),
                identity_morphism(builtin("c_s3")),
                non_surjective_embedding(), zero):
        dm = build_dual_morphism(mor)
        assert exact_vaes_statuses(dm) == float_vaes_statuses(mor, dm), \
            mor.label
    got = []
    for mor in [f.apply(mor_a3) for f in every_entry(mor_a3, "pi")]:
        dm = build_dual_morphism(mor)
        want = float_vaes_statuses(mor, dm)
        assert exact_vaes_statuses(dm) == want
        got.append("".join(want[c][0].upper() for c in VAES_FLOAT_IDS))
    assert got == ["PFPF", "FFFF", "FFPF", "FFFF", "FFPF", "FFFF"]


def rebased(model, t):
    """The same model in the basis given by the columns of t, over Q(zeta_3)."""
    ti = inverse(t)
    return QGModel(
        name=f"{model.name}'", order=3, dim=model.dim,
        basis=tuple(f"f{i}" for i in range(model.dim)), unit=ti(model.unit),
        mult=ti @ model.mult @ t.tensor(t),
        coprod=ti.tensor(ti) @ model.coprod @ t, counit=model.counit @ t,
        antipode=ti @ model.antipode @ t, invol=ti @ model.invol @ t.conj(),
        positive=model.positive)


def test_exact_vaes_records_in_complex_coordinates(mor_a3):
    """Gram forms, convolution tables and pi with non-real entries, where
    an adjoint without its conjugation is wrong: the identity of C(Z3) in a
    Fourier-type basis, and the A3 restriction rebased on both sides, with
    the mutants of its pi, agree with the float oracle."""
    w, one = Cyc.zeta(3), Cyc.one(3)
    t_h = LinMap.from_dense((3,), (3,), [[one, one, one], [one, w, w * w],
                                         [one, w * w, w]]) @ \
        LinMap.from_dense((3,), (3,), [[one, w, 0], [0, one, 0], [0, 0, 2]])
    t_g = LinMap.identity((6,)) + LinMap.from_entries(
        (6,), (6,), [(0, 1, w), (2, 5, w * w), (1, 4, 1 - w)])
    source, target = rebased(mor_a3.source, t_g), rebased(mor_a3.target, t_h)
    rebased_a3 = QGMorphism(source, target,
                            inverse(t_h) @ mor_a3.pi @ t_g)
    ensure(validate_morphism(rebased_a3))
    for model in (source, target):
        gram = solve_haar(model).gram
        assert not gram.conj() == gram, model.name
    cases = [identity_morphism(target), rebased_a3]
    cases += [f.apply(rebased_a3) for f in every_entry(rebased_a3, "pi")[:6]]
    dms = [build_dual_morphism(mor) for mor in cases]
    got = [exact_vaes_statuses(dm) for dm in dms]
    assert got == [float_vaes_statuses(dm.morphism, dm) for dm in dms]
    assert [set(g.values()) for g in got[:2]] == [{"pass"}, {"pass"}]


def test_subgroup_pass_forms_the_dual_product_law_once(monkeypatch):
    """One ``subgroup`` pass over models/restrict_a3.json forms
    pi_hat o conv_H, the left side of pi_hat's product law, once:
    ``vaes.dual-homomorphism`` restates ``dual.multiplicative``."""
    built, pairs = [], []
    build, matmul = subgroups.build_dual_morphism, LinMap.__matmul__

    def spy_build(mor):
        built.append(out := build(mor))
        return out

    def spy_matmul(a, b):
        if built and a is built[0].pi_hat:
            pairs.append(b)
        return matmul(a, b)

    monkeypatch.setattr(subgroups, "build_dual_morphism", spy_build)
    monkeypatch.setattr(LinMap, "__matmul__", spy_matmul)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["subgroup", "--g", str(MODELS_DIR / "c_s3.json"),
                         "--h", str(MODELS_DIR / "c_z3.json"),
                         "--map", str(MODELS_DIR / "restrict_a3.json")]) == 0
    (dm,) = built
    conv_h = dm.target_duality.dual.mult
    assert sum(b is conv_h for b in pairs) == 1


@pytest.mark.parametrize("make", [restrict_s4_a4, restrict_d6_s3])
def test_subgroup_run_eliminates_pi_at_most_twice(eliminations, make):
    """A subgroup run eliminates pi once for its kernel (read by
    morphism.surjective and the Vaes certificate) and once with the
    identity as right-hand side, for the preimages of every target basis
    vector together.  It eliminates 18 maps in all, none of them an
    identity: the inverse of a group-like modular element is read off
    the antipode."""
    mor = make()
    ensure(validate_morphism(mor))
    dm = build_dual_morphism(mor)
    dual = ensure(check_dual_morphism(dm))
    ensure(check_expectation(dm))
    ensure(certify_vaes(dm, dual))
    assert [aug for m, aug in eliminations if m == mor.pi] \
        == [None, mor.target.idA]
    assert len(eliminations) == 18
    assert not [m for m, _ in eliminations
                if m.dom == m.cod and m == LinMap.identity(m.dom)]


def test_vaes_preimage_record_skips_for_injective_pi():
    mor = identity_morphism(builtin("c_z3"))
    ensure(validate_morphism(mor))
    records = certify_vaes(dm := build_dual_morphism(mor), check_dual_morphism(dm))
    ensure(records)
    rec = [r for r in records if r.check_id.endswith("preimage-independence")]
    assert rec[0].status == "skip"


def test_vaes_flags_non_surjective_embedding():
    mor = non_surjective_embedding()
    assert failed_ids(validate_morphism(mor)) == {"surjective"}
    dm = build_dual_morphism(mor)
    records = certify_vaes(dm, check_dual_morphism(dm))
    bad = [r for r in records if r.status == "fail"]
    assert any(r.check_id.endswith("injective") for r in bad)
    inj = [r for r in bad if r.check_id.endswith("injective")][0]
    assert "kernel" in inj.witness
    functional = [r for r in bad if r.check_id.endswith("functional-identity")]
    assert functional[0].witness == "target basis 0 has no preimage"


def test_vaes_skips_representation_records_off_the_positive_layer():
    """taft3 has mu != 1.  Its dual is not commutative, so the functional
    identity of its identity morphism pins the order pi_hat(x) * b."""
    for make in (counit_morphism, identity_morphism):
        mor = make(builtin("taft3"))
        records = certify_vaes(dm := build_dual_morphism(mor), check_dual_morphism(dm))
        ensure(records)
        by_id = {r.check_id.split(".vaes.")[-1]: r for r in records}
        assert by_id["functional-identity"].status == "pass"
        for check_id in ("represented", "represented-injective",
                         "norm-transport"):
            assert by_id[check_id].status == "skip"
            assert "scaling constant mu" in by_id[check_id].witness


def test_vaes_skips_representation_records_for_an_indefinite_gram_form():
    """C(Z3) with the involution delta_g* = delta_-g is a Hopf *-algebra
    with mu = 1 whose form phi(a* b) is indefinite."""
    c_z3 = builtin("c_z3")
    invol = LinMap.from_entries(c_z3.A, c_z3.A,
                                [(0, 0, 1), (2, 1, 1), (1, 2, 1)])
    twisted = dataclasses.replace(c_z3, name="c_z3 twisted", invol=invol,
                                  positive=False)
    ensure(validate_model(twisted))
    mor = identity_morphism(twisted)
    records = certify_vaes(dm := build_dual_morphism(mor), check_dual_morphism(dm))
    ensure(records)
    reasons = {r.witness for r in records[-3:] if r.status == "skip"}
    assert reasons == {
        "c_z3 twisted: Gram matrix of phi is not positive definite"}


def test_functoriality(mor_a3):
    outer = counit_morphism(mor_a3.target)
    ensure(check_functoriality(mor_a3, outer))


def test_compose_mismatch_raises(mor_a3):
    outer = counit_morphism(builtin("c_z2"))
    with pytest.raises(ModelError):
        compose_morphisms(outer, mor_a3)
