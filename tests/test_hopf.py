import dataclasses
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgcheck.cli import main
from qgcheck.duality import build_alg_mult_unitary, build_dual, regular
from qgcheck.errors import ModelError
from qgcheck.hopf import (GALOIS_KINDS, _build_galois,
                          check_cancellation, galois, galois_map,
                          solve_antipode, solve_counit,
                          validate_model, verify_counit_antipode)
from qgcheck.linalg import LinMap, Vec, apply_on_legs, inverse, rank
from qgcheck.models import (BUILTIN_MODELS, GroupTable, build_broken,
                            build_function_algebra, builtin)
from qgcheck.modular import _invariance_system, solve_haar
from qgcheck.report import FAIL, PASS, Checker, ensure
from qgcheck.scalars import Cyc
from faults import FILE_FAULTS, dihedral, model_file


def one():
    return Cyc.one(1)


# Twisted multiplications on functions over Z2, enumerated by hand from the
# definitions: gl sends d_a (x) d_b to d_b (x) d_{a-b}, gr to d_{a-b} (x) d_b,
# rl to d_a (x) d_{a^-1 b}, rr to d_{b-a} (x) d_a (indices mod 2).
def test_galois_oracle_functions_on_z2(model_cache):
    m = model_cache("c_z2")
    g = galois(m)
    expect = {
        "gl": [((b, a ^ b), (a, b)) for a in range(2) for b in range(2)],
        "gr": [((a ^ b, b), (a, b)) for a in range(2) for b in range(2)],
        "rl": [((a, a ^ b), (a, b)) for a in range(2) for b in range(2)],
        "rr": [((a ^ b, a), (a, b)) for a in range(2) for b in range(2)],
    }
    for kind, pairs in expect.items():
        want = LinMap.from_entries(
            m.AA, m.AA,
            (((r[0] * 2 + r[1]), (c[0] * 2 + c[1]), one()) for r, c in pairs))
        assert g[kind] == want, kind


# The suffixes of the opposite and co-opposite variants: _op reverses the
# product, _cop the coproduct legs, _opcop both.
GALOIS_TAGS = ("", "_cop", "_op", "_opcop")

# Each variant as (flip on the left, canonical kind, flip on the right):
# e.g. rl_op(a (x) b) = coprod(b)(a (x) 1) = gl(b (x) a).
FLIP_FORMS = {
    "gl_cop": (True, "gr", False), "gr_cop": (True, "gl", False),
    "rl_cop": (True, "rr", False), "rr_cop": (True, "rl", False),
    "gl_op": (False, "rl", True), "gr_op": (False, "rr", True),
    "rl_op": (False, "gl", True), "rr_op": (False, "gr", True),
    "gl_opcop": (True, "rr", True), "gr_opcop": (True, "rl", True),
    "rl_opcop": (True, "gr", True), "rr_opcop": (True, "gl", True),
}


def test_galois_variant_count_and_cancellation(sweedler, c_s3):
    keys = {kind + tag for kind in GALOIS_KINDS for tag in GALOIS_TAGS}
    assert len(keys) == 16
    for m in (sweedler, c_s3):
        id_aa = LinMap.identity(m.AA)
        for key in keys:
            g = _galois_by_identity_tensors(m, key)
            assert inverse(g) @ g == id_aa, (m.name, key)
        ensure(check_cancellation(m))


def test_galois_map_takes_only_the_canonical_keys(sweedler):
    for key in ("rl_op", "gl_cop", "rr_opcop", "xx"):
        with pytest.raises(KeyError):
            galois_map(sweedler, key)
    assert ("galois", "rl_op") not in sweedler._memo


def _galois_by_identity_tensors(m, key):
    """The twisted multiplication, or its variant ``key`` (a canonical kind
    and one of ``GALOIS_TAGS``), as a composition of maps tensored with the
    identity: the embedded form the leg-wise build and the flip forms must
    reproduce."""
    kind, tag = key[:2], key[2:]
    i, flip = m.idA, m.flipA
    mult = m.mult @ flip if tag.startswith("_op") else m.mult
    coprod = flip @ m.coprod if tag.endswith("cop") else m.coprod
    return {"gl": lambda: mult.tensor(i) @ i.tensor(flip) @ coprod.tensor(i),
            "gr": lambda: i.tensor(mult) @ coprod.tensor(i),
            "rl": lambda: mult.tensor(i) @ i.tensor(coprod),
            "rr": lambda: i.tensor(mult) @ flip.tensor(i) @ i.tensor(coprod),
            }[kind]()


def stored_order(t):
    """Columns and the entries inside each, in stored order."""
    return [(j, list(col.items())) for j, col in t.cols.items()]


def product_in_aa(m, u, w):
    """Column (p, q) is u(e_p) w(e_q) in A (x) A (for vectors, the product
    u w): mult on legs (0, 2) of u (x) w, which is never formed, then on
    legs (1, 2)."""
    return apply_on_legs(m.mult, (1, 2), apply_on_legs(m.mult, (0, 2), u, w))


GENERATED = {"c_s4": lambda: build_function_algebra(GroupTable.symmetric(4)),
             "c_d6": lambda: build_function_algebra(dihedral(6))}


def _two_operand_sites(m):
    """(label, f, legs, x, y) for the forms in which the library applies a
    map to legs of a tensor product it never forms."""
    mult, coprod, i, flip = m.mult, m.coprod, m.idA, m.flipA
    last = m.basis_vec(m.dim - 1)
    return [("assoc (ab)c", mult, (0, 1), mult, i),
            ("assoc a(bc)", mult, (0, 1), i, mult),
            ("gl", mult, (0, 2), coprod, i), ("gr", mult, (1, 2), coprod, i),
            ("rl", mult, (0, 1), i, coprod), ("rr flip", flip, (0, 1), i, coprod),
            ("mult-hom", mult, (0, 2), coprod, coprod),
            ("lmul", mult, (0, 1), last, i), ("rmul", mult, (0, 1), i, last),
            ("mul", mult, (0, 1), last, m.unit + last),
            ("anti-mult", mult @ flip, (0, 1), m.antipode, m.antipode),
            ("w", m.antipode_inv, (1,), i, coprod)]


def test_mult_hom_memory_is_that_of_the_other_structure_records(monkeypatch):
    """On C(S4) the product law coprod(ab) = coprod(a)coprod(b) allocates no
    more, at its peak, than the costliest other struct, hopf or cancel
    record: coprod (x) coprod, 331 776 entries, is never formed."""
    peaks = {}
    exact = Checker.exact

    def traced(self, check_id, law, builder):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rec = exact(self, check_id, law, builder)
        peaks[rec.check_id.split(".", 1)[1]] = \
            tracemalloc.get_traced_memory()[1] - before
        return rec

    monkeypatch.setattr(Checker, "exact", traced)
    tracemalloc.start()
    try:
        ensure(validate_model(GENERATED["c_s4"]()))
    finally:
        tracemalloc.stop()
    mult_hom = peaks.pop("struct.coalg.mult-hom")
    assert len(peaks) == 30
    assert mult_hom <= max(peaks.values()), (mult_hom, max(peaks.values()))


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS) + sorted(GENERATED))
def test_two_operand_sites_match_the_formed_tensor(model_cache, name):
    """Each two-operand form equals the same map applied to the formed
    tensor product, entry for entry and in stored order, and the
    composition f o (x (x) y) where f takes every leg."""
    m = GENERATED[name]() if name in GENERATED else model_cache(name)
    for label, f, legs, x, y in _two_operand_sites(m):
        got, formed = apply_on_legs(f, legs, x, y), x.tensor(y)
        want = f @ formed if len(legs) == len(formed.cod) \
            else apply_on_legs(f, legs, formed)
        assert got == want, label
        assert stored_order(got) == stored_order(want), label


def _flip_form(m, key):
    """The variant ``key`` read through the flip, as ``FLIP_FORMS`` says."""
    left, kind, right = FLIP_FORMS[key]
    g = galois_map(m, kind)
    g = g @ m.flipA if right else g
    return m.flipA @ g if left else g


@pytest.mark.parametrize("name", ["sweedler", "taft3", "taft4", "c_s3", "d_z3"])
def test_galois_maps_match_identity_tensor_compositions(model_cache, name):
    """Each canonical map, as built, and each variant, as its flip form,
    equals its identity-tensor form, entry for entry and in stored order,
    so a FAIL witness read off either names the same entry."""
    m = model_cache(name)
    for key in (kind + tag for kind in GALOIS_KINDS for tag in GALOIS_TAGS):
        got = _build_galois(m, key) if key in GALOIS_KINDS \
            else _flip_form(m, key)
        want = _galois_by_identity_tensors(m, key)
        assert got == want, key
        assert stored_order(got) == stored_order(want), key


def test_cancellation_taft3(taft3):
    ensure(check_cancellation(taft3))


def _fields(rec):
    """What a report shows of a record, apart from its wall time."""
    return {k: v for k, v in rec.to_dict().items() if k != "wall_ms"}


@pytest.mark.parametrize("name", ["sweedler", "taft3"])
@pytest.mark.parametrize("field", ["mult", "coprod"])
@pytest.mark.parametrize("step", [1, -1])
def test_cancellation_records_on_mutants(name, field, step):
    """Each bijectivity record is the one that inverting the map and
    comparing inverse(m) m with the identity would make, and each det
    record passes exactly when the map has full rank."""
    model = FILE_FAULTS[field, step].apply(model_file(name))
    records = {r.check_id: r for r in check_cancellation(model)}
    oracle = Checker(f"{model.name}.cancel")
    n = model.dim ** 2
    id_aa = LinMap.identity(model.AA)
    ranks = {}
    for kind, m in galois(model).items():
        want = oracle.exact(kind, f"{kind} is bijective on A(x)A",
                            lambda m=m: inverse(m) @ m - id_aa)
        assert _fields(records[want.check_id]) == _fields(want)
        ranks[kind] = rank(m)
        det_rec = records[f"{want.check_id}.det"]
        full = ranks[kind] == n
        assert det_rec.status == (PASS if full else FAIL)
        assert det_rec.residual == (0.0 if full else float("inf"))
        assert det_rec.witness is None
    if (name, field, step) == ("taft3", "mult", -1):
        assert ranks == {"gl": 78, "gr": 78, "rl": 81, "rr": 81}


@pytest.mark.parametrize("field, step, refused", [
    ("mult", 1, True), ("mult", -1, True), ("coprod", 1, True),
    ("coprod", -1, True), ("antipode", 1, True), ("invol", 1, False),
    ("invol", -1, False)])
def test_w_refusal_on_sweedler_mutants(field, step, refused):
    """The single-entry mutants of sweedler whose w the op-twisted Galois
    map does not invert are refused with one ModelError; the involution
    mutants, which leave w and w_inv alone, are not.  Each mutant is the
    source of the clean model's duality."""
    clean = model_file("sweedler")
    dd = dataclasses.replace(build_dual(solve_haar(clean)),
                             source=FILE_FAULTS[field, step].apply(clean))
    if not refused:
        assert build_alg_mult_unitary(dd).inverse_defect.is_zero()
        return
    with pytest.raises(ModelError) as exc:
        build_alg_mult_unitary(dd)
    assert str(exc.value) == ("sweedler: multiplicative unitary is not "
                              "inverted by the op-twisted Galois map")


@pytest.mark.parametrize("name", ["taft4", "c_s3", "d_z3"])
def test_no_map_is_eliminated_twice(monkeypatch, eliminations, name):
    """Over a whole run, no two eliminations have equal maps and equal
    right-hand sides, compared by value: on taft4 the bidual's invariance
    system, equal to the model's, is not eliminated again, and on a
    cocommutative model such as d_z3 neither is the right one.  Each
    canonical Galois map is eliminated exactly once, with no right-hand
    side, and no other map equal to one of them with the flip on either
    side (an op/cop variant, such as rl_op = gl o flip) is eliminated.  The
    left invariance systems of the model, its dual and its bidual, and the
    model's right one, are eliminated, each value once by the rule above,
    and the regular family of the model and of its dual are eliminated
    once each when the analytic suite runs (taft4 is refused there).  No
    inverse is eliminated that is already known: S(delta) inverts delta,
    and sigma'^-1 is read off the matrix that gives sigma'."""
    assert main(["verify", name, "--suite", "all"]) == 0
    monkeypatch.undo()  # the models rebuilt below are not part of the run
    assert len(eliminations) == {"taft4": 14, "c_s3": 19, "d_z3": 18}[name]
    for k, (m, aug) in enumerate(eliminations):
        assert (m, aug) not in eliminations[:k], (k, m)
    model = builtin(name)
    canonical, sides = galois(model), (LinMap.identity(model.AA), model.flipA)
    variants = [f @ g @ h for g in canonical.values()
                for f in sides for h in sides]
    hits = [(m, aug) for m, aug in eliminations
            if any(m == v for v in variants)]
    for kind, g in canonical.items():
        assert [aug for m, aug in hits if m == g] == [None], kind
    assert len(hits) == len(canonical)
    dd = build_dual(solve_haar(model))
    systems = [_invariance_system(x, "left")
               for x in (model, dd.dual, build_dual(dd.dual_haar).dual)]
    systems.append(_invariance_system(model, "right"))
    for s in systems:
        assert s in [m for m, _ in eliminations]
    for x in (model, dd.dual):
        assert sum(m == regular(x) for m, _ in eliminations) \
            == (name != "taft4")


@pytest.mark.parametrize("name", ["trivial", "c_z3", "c_z4", "cg_z2", "cg_z3",
                                  "c_s3", "cg_s3", "d_z2", "d_z3", "sweedler",
                                  "taft3"])
def test_validate_builtin_models(model_cache, name):
    ensure(validate_model(model_cache(name)))


def test_validate_double_s3(d_s3):
    ensure(validate_model(d_s3))


def test_solved_antipode_is_group_inverse(model_cache):
    m = model_cache("cg_z3")
    s = solve_antipode(m)
    want = LinMap.from_entries(m.A, m.A, (((3 - g) % 3, g, one()) for g in range(3)))
    assert s == want
    assert s == m.antipode


def test_solved_counit_matches_stored(sweedler, model_cache):
    for m in (sweedler, model_cache("c_s3")):
        assert solve_counit(m) == m.counit
    assert solve_antipode(sweedler) == sweedler.antipode


def test_sweedler_product_table(sweedler):
    m = sweedler
    e = {lab: m.element({lab: 1}) for lab in ("1", "x", "g", "gx")}
    zero = Vec.zero(m.A)
    table = {
        ("x", "x"): zero,
        ("x", "g"): m.element({"gx": -1}),
        ("x", "gx"): zero,
        ("g", "x"): e["gx"],
        ("g", "g"): e["1"],
        ("g", "gx"): e["x"],
        ("gx", "x"): zero,
        ("gx", "g"): m.element({"x": -1}),
        ("gx", "gx"): zero,
    }
    for (a, b), want in table.items():
        assert m.mul(e[a], e[b]) == want, (a, b)
    for lab in e:
        assert m.mul(e["1"], e[lab]) == e[lab]
        assert m.mul(e[lab], e["1"]) == e[lab]


def test_sweedler_coproduct_antipode_star(sweedler):
    m = sweedler
    x, g, gx = (m.element({lab: 1}) for lab in ("x", "g", "gx"))
    unit = m.unit
    assert m.coprod(g) == g.tensor(g)
    assert m.coprod(x) == x.tensor(unit) + g.tensor(x)
    assert m.coprod(gx) == gx.tensor(g) + unit.tensor(gx)
    assert m.antipode(x) == m.element({"gx": -1})
    assert m.antipode(gx) == x
    assert m.antipode(m.antipode(x)) == m.element({"x": -1})
    assert m.bar(x) == x
    assert m.bar(g) == g
    assert m.bar(gx) == m.element({"gx": -1})


def test_taft3_relations(taft3):
    m = taft3
    zeta = Cyc.zeta(3)
    g, x = m.element({"g": 1}), m.element({"x": 1})
    assert m.mul(m.mul(g, g), g) == m.unit
    assert m.mul(m.mul(x, x), x) == Vec.zero(m.A)
    # x g = zeta g x
    assert m.mul(x, g) == zeta * m.mul(g, x)
    # S(x) = -g^2 x, S^2(x) = zeta x
    assert m.antipode(x) == Vec(m.A, {m.basis_index("g2x"): -Cyc.one(3)})
    assert m.antipode(m.antipode(x)) == zeta * x


def test_broken_model_fails_antipode_laws():
    records = validate_model(build_broken())
    bad = [r for r in records if not r.ok]
    assert bad, "broken model must fail validation"
    assert any("antipode" in r.check_id for r in bad)
    assert all(r.witness or r.residual is not None for r in bad)
    # the algebra layer itself is untouched
    assert all(r.ok for r in records if ".struct.alg" in r.check_id)


def test_counit_antipode_records_have_laws(sweedler):
    records = verify_counit_antipode(sweedler)
    assert all(r.law for r in records)
    assert {r.status for r in records} == {"pass"}


def test_mul2_matches_dense_product(model_cache):
    m = model_cache("c_z2")
    # product on A(x)A as one dense map: (m(x)m) o (id(x)flip(x)id)
    mm = (m.mult.tensor(m.mult)) @ LinMap.leg_permutation((2, 2, 2, 2), (0, 2, 1, 3))
    for i in range(4):
        for j in range(4):
            u, w = Vec.basis(m.AA, i), Vec.basis(m.AA, j)
            assert product_in_aa(m, u, w) == mm(u.tensor(w))


def small_vecs(model, max_terms=3):
    idx = st.integers(min_value=0, max_value=model.dim * model.dim - 1)
    coeff = st.integers(min_value=-3, max_value=3)
    return st.dictionaries(idx, coeff, max_size=max_terms).map(
        lambda d: Vec(model.AA, {i: Cyc.rational(Fraction(c), 1)
                                 for i, c in d.items() if c}))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mul2_is_associative_on_sweedler(data):
    m = builtin("sweedler")
    u = data.draw(small_vecs(m))
    v = data.draw(small_vecs(m))
    w = data.draw(small_vecs(m))
    assert product_in_aa(m, product_in_aa(m, u, v), w) \
        == product_in_aa(m, u, product_in_aa(m, v, w))


def test_model_shape_errors():
    good = builtin("sweedler")
    with pytest.raises(ModelError):
        from dataclasses import replace
        replace(good, counit=LinMap.identity(good.A))
