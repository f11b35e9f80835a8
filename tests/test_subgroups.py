"""Morphisms, dual morphisms, the expectation and the subgroup certificate."""

import dataclasses
from pathlib import Path

import pytest

from qgcheck import gns
from qgcheck.errors import ModelError
from qgcheck.linalg import LinMap
from qgcheck.modelio import parse_model, parse_morphism
from qgcheck.models import GroupTable, build_function_algebra, builtin
from qgcheck.report import _diff_witness, ensure
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


MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def dihedral(n):
    """The dihedral group of order 2n on elements r^a s^b, index a + n*b."""
    def mul(i, j):
        a, b, c, d = i % n, i // n, j % n, j // n
        return (a + (c if b == 0 else -c)) % n + n * ((b + d) % 2)
    labels = tuple(f"r{a}" + ("s" if b else "") for b in range(2)
                   for a in range(n))
    return GroupTable(f"d{n}", labels,
                      [[mul(i, j) for j in range(2 * n)]
                       for i in range(2 * n)])


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


def restrict_a3_file():
    source = parse_model(str(MODELS_DIR / "c_s3.json"))
    target = parse_model(str(MODELS_DIR / "c_z3.json"))
    return parse_morphism(str(MODELS_DIR / "restrict_a3.json"), source,
                          target)


def restrict_d6_s3():
    return restriction_morphism(dihedral(6), [0, 2, 4, 6, 8, 10])


@pytest.mark.parametrize("make", [restrict_a3_file, restrict_d6_s3])
@pytest.mark.parametrize("change", ["negate", "zero", "move"])
def test_streamed_bimodule_matches_composed_oracle(make, change):
    dm = build_dual_morphism(make())
    assert composed_bimodule(dm).is_zero()
    record = check_expectation(dm)[0]
    assert record.check_id.endswith(".bimodule")
    assert record.status == "pass" and record.residual == 0.0
    # pi_hat changed: the same residual and witness.  Negating column a
    # leaves the triples (a, u, a) intact, so the largest differences
    # tie across triples of different x and y, and the witness pins
    # their order.  Zeroing column a empties the composed left side on
    # every triple with x = a or y = a; those differences come after all
    # others.  Moving the entry of column a to a row outside the image
    # of pi_hat empties the left side only for some u, so differences
    # of both kinds tie, and the left-empty ones still come last.
    cols = {j: dict(col) for j, col in dm.pi_hat.cols.items()}
    a = sorted(cols)[1]
    if change == "negate":
        cols[a] = {i: -v for i, v in cols[a].items()}
    elif change == "zero":
        cols[a] = {}
    else:
        (value,) = cols[a].values()
        image = {i for col in cols.values() for i in col}
        cols[a] = {min(set(range(dm.pi_hat.cod_dim)) - image): value}
    bad = dataclasses.replace(
        dm, pi_hat=LinMap(dm.pi_hat.dom, dm.pi_hat.cod, cols))
    residual, witness = _diff_witness(composed_bimodule(bad))
    record = check_expectation(bad)[0]
    assert record.status == "fail"
    assert (record.residual, record.witness) == (residual, witness)
    assert witness.startswith("entry (")


def test_vaes_certificate(mor_a3, mor_z2):
    for mor in (mor_a3, mor_z2, counit_morphism(builtin("c_s3"))):
        dm = build_dual_morphism(mor)
        records = certify_vaes(mor, dm)
        ensure(records)
        by_id = {r.check_id.split(".vaes.")[-1]: r for r in records}
        assert by_id["preimage-independence"].status == "pass"
        assert by_id["represented"].status == "pass"
        assert by_id["norm-transport"].status == "pass"


def test_vaes_records_on_the_frame_equal_those_on_the_full_realization(
        mor_a3, mor_z2, monkeypatch):
    """The frame is the same computation as build_gns up to the frame:
    every record's status, residual and witness agree bit for bit."""
    def outcome(records):
        return [(r.check_id, r.status, r.residual, r.witness)
                for r in records]

    for mor in (mor_a3, mor_z2, counit_morphism(builtin("c_s3"))):
        dm = build_dual_morphism(mor)
        on_frame = outcome(certify_vaes(mor, dm))
        full = {id(m): gns.build_gns(m, gns.Tolerances())
                for m in (mor.source, mor.target)}
        served = []

        def realization(model, tol):
            served.append(model)
            return full[id(model)]

        with monkeypatch.context() as patch:
            patch.setattr(gns, "build_gns_frame", realization)
            on_realization = outcome(certify_vaes(mor, dm))
        assert [id(m) for m in served] == [id(mor.source), id(mor.target)]
        assert on_frame == on_realization
        assert [r[1] for r in on_frame].count("pass") >= 10


def test_vaes_preimage_record_skips_for_injective_pi():
    mor = identity_morphism(builtin("c_z3"))
    ensure(validate_morphism(mor))
    records = certify_vaes(mor, build_dual_morphism(mor))
    ensure(records)
    rec = [r for r in records if r.check_id.endswith("preimage-independence")]
    assert rec[0].status == "skip"


def test_vaes_flags_non_surjective_embedding():
    source = build_function_algebra(GroupTable.cyclic(2))
    target = build_function_algebra(GroupTable.cyclic(4))
    one = source.scalar(1)
    pi = LinMap.from_entries(source.A, target.A,
                             [(i, i % 2, one) for i in range(4)])
    mor = QGMorphism(source, target, pi)
    assert failed_ids(validate_morphism(mor)) == {"surjective"}
    dm = build_dual_morphism(mor)
    records = certify_vaes(mor, dm)
    bad = [r for r in records if r.status == "fail"]
    assert any(r.check_id.endswith("injective") for r in bad)
    inj = [r for r in bad if r.check_id.endswith("injective")][0]
    assert "kernel" in inj.witness


def test_vaes_skips_representation_records_off_the_positive_layer():
    mor = counit_morphism(builtin("taft3"))
    records = certify_vaes(mor, build_dual_morphism(mor))
    ensure(records)
    skipped = {r.check_id.split(".vaes.")[-1]
               for r in records if r.status == "skip"}
    assert {"represented", "represented-injective",
            "norm-transport"} <= skipped


def test_functoriality(mor_a3):
    outer = counit_morphism(mor_a3.target)
    ensure(check_functoriality(mor_a3, outer))


def test_compose_mismatch_raises(mor_a3):
    outer = counit_morphism(builtin("c_z2"))
    with pytest.raises(ModelError):
        compose_morphisms(outer, mor_a3)
