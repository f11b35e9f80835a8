"""LinMap.regroup, the one reader of the flattened index layout.

The hand-written reindex loops that regroup and a few compositions
replaced are kept here as oracles, copied from their last library form:
each new build must equal its loop, and, where the library promises it,
store its entries in the same order, so FAIL witnesses (the first of
several equal worst entries) name the same entry.
"""

import ast
import functools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgcheck import models
from qgcheck.duality import (build_alg_mult_unitary, build_dual, check_dual,
                             leg_one_defect, regular, tensor_image)
from qgcheck.errors import CheckFailure, LegMismatch, ModelError
from qgcheck.hopf import QGModel, solve_counit
from qgcheck.linalg import (LinMap, Vec, apply_on_legs, from_multi, kernel,
                            solve_linear, to_multi, total_dim)
from qgcheck.modular import _invariance_system, form_matrix, solve_haar
from qgcheck.models import GroupTable, build_function_algebra
from qgcheck.report import Checker
from qgcheck.scalars import Cyc
from qgcheck.subgroups import (build_dual_morphism, certify_vaes,
                               check_dual_morphism, counit_morphism,
                               identity_morphism)
from test_hopf import stored_order
from faults import (PART_CHANGES, PI_HAT_MOVES, Fault, dihedral, one_entry,
                    part_fault, restrict_a3_file, restrict_d6_s3)
from test_subgroups import non_surjective_embedding

# -- the primitive ------------------------------------------------------------


def _naive_regroup(t: LinMap, order, ncod: int):
    """(dom, cod, cols) of the regrouped map, one multi-index at a time."""
    legs = t.cod + t.dom
    dims = tuple(legs[p] for p in order)
    cod, dom = dims[:ncod], dims[ncod:]
    cols = {}
    for i, j, v in t.entries():
        multi = to_multi(i, t.cod) + to_multi(j, t.dom)
        moved = tuple(multi[p] for p in order)
        cols.setdefault(from_multi(moved[ncod:], dom), {})[
            from_multi(moved[:ncod], cod)] = v
    return dom, cod, cols


@st.composite
def leg_maps(draw, max_legs=4):
    """A sparse map on 1..max_legs legs split between codomain and domain,
    its columns and entries stored in the order drawn, not index order."""
    legs = draw(st.lists(st.integers(1, 3), min_size=1, max_size=max_legs))
    split = draw(st.integers(0, len(legs)))
    cod, dom = tuple(legs[:split]), tuple(legs[split:])
    cells = draw(st.lists(
        st.tuples(st.integers(0, total_dim(cod) - 1),
                  st.integers(0, total_dim(dom) - 1),
                  st.integers(-3, 3).filter(bool)),
        max_size=12, unique_by=lambda e: e[:2]))
    cols = {}
    for i, j, v in cells:
        cols.setdefault(j, {})[i] = v
    return LinMap(dom, cod, cols)


@st.composite
def regroup_cases(draw):
    t = draw(leg_maps())
    n = len(t.cod + t.dom)
    return (t, tuple(draw(st.permutations(range(n)))),
            draw(st.integers(0, n)))


@settings(max_examples=300, deadline=None)
@given(case=regroup_cases())
def test_regroup_matches_the_multi_index_oracle(case):
    t, order, ncod = case
    got = t.regroup(order, ncod)
    dom, cod, cols = _naive_regroup(t, order, ncod)
    assert (got.dom, got.cod) == (dom, cod)
    assert got == LinMap(dom, cod, cols)
    # columns by first appearance, entries in the source's entries() order
    assert stored_order(got) == [(j, list(col.items()))
                                 for j, col in cols.items()]


def test_regroup_refuses_a_non_permutation():
    t = LinMap.identity((2, 3))
    for order in ((0, 0, 1, 2), (0, 1, 2), (0, 1, 2, 4)):
        with pytest.raises(LegMismatch):
            t.regroup(order, 2)


def _old_transpose(t: LinMap) -> LinMap:
    cols = {}
    for i, j, v in t.entries():
        cols.setdefault(i, {})[j] = v
    return LinMap(t.cod, t.dom, cols)


def _old_leg_permutation(dims, perm) -> LinMap:
    cod = tuple(dims[p] for p in perm)
    cols = {}
    for j in range(total_dim(dims)):
        multi = to_multi(j, dims)
        cols[j] = {from_multi(tuple(multi[p] for p in perm), cod): Cyc.one()}
    return LinMap(dims, cod, cols)


@settings(max_examples=200, deadline=None)
@given(t=leg_maps())
def test_transpose_matches_its_loop(t):
    got, want = t.transpose(), _old_transpose(t)
    assert got == want and stored_order(got) == stored_order(want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_leg_permutation_matches_its_loop(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                    max_size=4)))
    perm = tuple(data.draw(st.permutations(range(len(dims)))))
    got, want = LinMap.leg_permutation(dims, perm), \
        _old_leg_permutation(dims, perm)
    assert got == want and stored_order(got) == stored_order(want)


def test_leg_permutation_refuses_a_non_permutation():
    with pytest.raises(LegMismatch):
        LinMap.leg_permutation((2, 2), (0, 0))


# -- the reindex loops it replaced, as oracles ---------------------------------


def _old_regular(model: QGModel, right: bool) -> LinMap:
    d = model.dim
    cols = {}
    for i, fj, v in model.mult.entries():
        f, j = divmod(fj, d)[::-1] if right else divmod(fj, d)
        cols.setdefault(f, {})[i * d + j] = v
    return LinMap._of(model.A, model.AA, cols)


def _old_tensor_image(left: LinMap, right: LinMap, v: Vec) -> LinMap:
    d = left.cod[0]
    t = apply_on_legs(right, (2,), apply_on_legs(left, (0,), v))
    cols = {}
    for k, c in t.items():
        ij, rs = divmod(k, d * d)
        (i, j), (r, s) = divmod(ij, d), divmod(rs, d)
        cols.setdefault(j * d + s, {})[i * d + r] = c
    return LinMap._of((d, d), (d, d), cols)


def _old_slices(dd, mw, leg: int) -> LinMap:
    m, gram, d = dd.source, dd.haar.gram, dd.source.dim
    t = (m.idA.tensor(gram) if leg else gram.tensor(m.idA)) @ mw.w
    cols = {}
    for r, c, v in t.entries():
        (i, a), (j, b) = divmod(r, d), divmod(c, d)
        if leg == 0:
            (a, i), (b, j) = (i, a), (j, b)
        cols.setdefault(a * d + b, {})[i * d + j] = v
    return LinMap._of(m.AA, m.AA, cols)


def _old_invariance_system(model: QGModel, side: str) -> LinMap:
    d = model.dim
    entries = []
    for k in range(d):
        for ij, v in model.coprod.column(k).items():
            i, j = divmod(ij, d)
            keep, contract = (i, j) if side == "left" else (j, i)
            entries.append((k * d + keep, contract, v))
        for i, u in model.unit.data.items():
            entries.append((k * d + i, k, -u))
    return LinMap.from_entries((d,), (d, d), entries)


def _old_counit_system(model: QGModel) -> tuple[LinMap, Vec]:
    d = model.dim
    entries = []
    for i_ in range(d):
        for jk, v in model.coprod.column(i_).items():
            j, k = divmod(jk, d)
            entries.append((i_ * d + k, j, v))
    return (LinMap.from_entries((d,), (d, d), entries),
            Vec((d, d), {i_ * d + i_: Cyc.one(1) for i_ in range(d)}))


def _old_dual_coproduct(model: QGModel, haar) -> LinMap:
    dcop_cols = {}
    mflip = model.mult @ model.flipA
    for f in range(model.dim):
        w_func = haar.phi @ model.rmul(model.basis_vec(f)) @ mflip
        w = Vec(model.AA, {j: v for _, j, v in w_func.entries()})
        x = apply_on_legs(haar.pmat_inv, (0,),
                          apply_on_legs(haar.pmat_inv, (1,), w))
        if x.data:
            dcop_cols[f] = dict(x.data)
    return LinMap(model.A, model.AA, dcop_cols)


def _old_gram(model: QGModel, phi: LinMap) -> LinMap:
    d = model.dim
    return LinMap.from_entries(model.A, model.A, (
        (i, j, phi(model.mul(model.bar(model.basis_vec(i)),
                             model.basis_vec(j))).get(0))
        for i in range(d) for j in range(d)))


def _old_inner_product_matrix(m: QGModel, dm: QGModel) -> LinMap:
    d = m.dim
    return LinMap.from_entries(m.A, m.A, (
        (a, b, m.counit_of(dm.mul(dm.invol.column(a), m.basis_vec(b))))
        for a in range(d) for b in range(d)))


def _old_leg_one_defect(model: QGModel, w: LinMap) -> LinMap:
    d, mult = model.dim, model.mult.cols
    w1 = w @ model.unit.tensor(model.idA)
    cols = {}
    for b, col in w1.cols.items():
        for xy, c in col.items():
            x, y = divmod(xy, d)
            for a in range(d):
                acc = cols.setdefault(a * d + b, {})
                for i, v in mult.get(x * d + a, {}).items():
                    k = i * d + y
                    acc[k] = acc[k] + v * c if k in acc else v * c
    return w - LinMap(model.AA, model.AA, cols)


def _old_pair_coproduct_oracle(m: QGModel, phi: LinMap) -> LinMap:
    d = m.dim
    func = phi @ m.mult @ m.idA.tensor(m.mult)
    cols = {}
    for jik in sorted(func.cols, key=lambda x: (x % (d * d), x // (d * d))):
        j, ik = divmod(jik, d * d)
        i, k = divmod(ik, d)
        cols.setdefault(k, {})[i * d + j] = func.cols[jik][0]
    return LinMap(m.A, m.AA, cols)


GENERATED = {"c_s4": lambda: build_function_algebra(GroupTable.symmetric(4)),
             "c_d6": lambda: build_function_algebra(dihedral(6))}
ALL_MODELS = (*models.BUILTIN_MODELS, *GENERATED)


@pytest.fixture(scope="module")
def any_model(model_cache):
    """A built-in model, or one of the generated function algebras."""
    built = {}

    def get(name):
        if name not in GENERATED:
            return model_cache(name)
        if name not in built:
            built[name] = GENERATED[name]()
        return built[name]

    return get


@pytest.fixture(scope="module")
def any_duality(any_model):
    """The duality of ``any_model(name)``, built once per module."""
    return functools.cache(
        lambda name: build_dual(solve_haar(any_model(name))))


def _same(got: LinMap, want: LinMap, what: str):
    assert got == want, what
    assert stored_order(got) == stored_order(want), what


@pytest.mark.parametrize("name", ALL_MODELS)
def test_model_reads_match_their_loops(any_model, name):
    m = any_model(name)
    for right in (False, True):
        _same(regular(m, right), _old_regular(m, right), "regular")
    system, rhs = _old_counit_system(m)
    _same(m.coprod.regroup((2, 1, 0), 2), system, "counit system")
    assert list(m.idA.regroup((0, 1), 2).column(0).items()) \
        == list(rhs.items())
    assert solve_counit(m) == m.counit
    # the invariance system stores its entries in another order; kernel,
    # its only reader, returns the same basis in the same order
    for side in ("left", "right"):
        got, want = _invariance_system(m, side), _old_invariance_system(m, side)
        assert got == want, side
        assert [list(v.items()) for v in kernel(got)] \
            == [list(v.items()) for v in kernel(want)], side


@pytest.mark.parametrize("name", ALL_MODELS)
def test_dual_builds_match_their_loops(any_duality, name):
    dd = any_duality(name)
    m = dd.source
    for model, haar in ((m, dd.haar), (dd.dual, dd.dual_haar)):
        _same(haar.gram, _old_gram(model, haar.phi), "gram")
    _same(dd.dual.coprod, _old_dual_coproduct(m, dd.haar), "dual coproduct")
    _same(form_matrix(m.counit, dd.dual.mult, dd.dual.invol),
          _old_inner_product_matrix(m, dd.dual), "inner-product matrix")
    func = dd.haar.phi @ m.mult @ m.idA.tensor(m.mult)
    assert func.regroup((1, 0, 2), 2) \
        == _old_pair_coproduct_oracle(m, dd.haar.phi)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_unitary_reads_match_their_loops(any_duality, name):
    try:
        mw = build_alg_mult_unitary(any_duality(name))
    except ModelError:
        assert name == "broken"
        return
    dd = mw.duality
    m, dm = dd.source, dd.dual
    _same(leg_one_defect(m, mw.w), _old_leg_one_defect(m, mw.w),
          "leg-one defect")
    x = mw.w_inv(m.unit.tensor(dm.unit))
    for right in (False, True):
        left_f, right_f = regular(m, right), regular(dm, right)
        _same(tensor_image(left_f, right_f, x),
              _old_tensor_image(left_f, right_f, x), "tensor image")
    reg = regular(m)
    for f in range(min(m.dim, 3)):
        v = m.coprod.column(f)
        _same(tensor_image(reg, reg, v), _old_tensor_image(reg, reg, v),
              "tensor image of a coproduct")
    for leg in (0, 1):
        _same(mw.slices[leg], _old_slices(dd, mw, leg), "slices")


def _record(records, suffix):
    (r,) = [r for r in records if r.check_id.endswith(suffix)]
    return r.check_id, r.status, r.residual, r.witness


@pytest.mark.parametrize("name", ["sweedler", "taft3", "cg_s3", "d_z2",
                                  "d_z3", "c_s3"])
def test_pair_coproduct_witness_is_the_loop_oracles(duality_cache, name):
    """The pair.coproduct oracle stores its entries in another order than
    the loop did; on single-entry mutants of the dual coproduct and of
    the product the record still names the loop form's witness."""
    dd = duality_cache(name)
    m, p = dd.source, dd.haar.pmat
    cases = [f.apply(dd) for artifact in ("dual.coprod", "source.mult")
             for f in one_entry(dd, artifact)]
    for bad in cases:
        ck = Checker(f"{m.name}.dual")
        ck.exact("pair.coproduct", "", lambda bad=bad: p.tensor(p)
                 @ bad.dual.coprod
                 - _old_pair_coproduct_oracle(bad.source, bad.haar.phi))
        got = _record(check_dual(bad), ".pair.coproduct")
        assert got == _record(ck.records, ".pair.coproduct")
        assert got[1] == "fail"


# -- the multiplier records of the dual morphism -------------------------------


def _old_multiplier_records(dm):
    """multiplier-left, -right and -right-alt as d k value loops."""
    mor = dm.morphism
    src, tgt, pi = mor.source, mor.target, mor.pi
    dg = dm.source_duality.dual
    haar_g, haar_h = dm.source_duality.haar, dm.target_duality.haar
    n, k = src.dim, tgt.dim
    ck = Checker(f"{mor.label}.dual")
    id_g, id_h = src.idA, tgt.idA
    phi_h = haar_h.phi_of
    pi_basis = [pi(src.basis_vec(p)) for p in range(n)]

    def left_formula():
        vals = []
        for x in range(k):
            xv = tgt.basis_vec(x)
            vals.extend(phi_h(tgt.mul(tgt.antipode_inv(pi_basis[p]), xv))
                        for p in range(n))
        pair_first = LinMap.functional((k, n), vals)
        return dg.mult @ dm.pi_hat.tensor(id_g) \
            - pair_first.tensor(id_g) @ id_h.tensor(src.coprod)

    def right_formula(vals):
        pair_second = LinMap.functional((n, k), vals)
        return dg.mult @ id_g.tensor(dm.pi_hat) \
            - id_g.tensor(pair_second) @ src.coprod.tensor(id_h)

    twisted = [pi(src.mul(haar_g.delta, src.antipode(src.basis_vec(q))))
               for q in range(n)]
    tail = tgt.mul(pi(haar_g.delta_inv), haar_h.delta)
    ck.exact("multiplier-left", "", left_formula)
    ck.exact("multiplier-right", "", lambda: right_formula(
        [phi_h(tgt.mul(twisted[q], tgt.basis_vec(x)))
         for q in range(n) for x in range(k)]))
    ck.exact("multiplier-right-alt", "", lambda: right_formula(
        [phi_h(tgt.mul(tgt.antipode_inv(tgt.basis_vec(x)),
                       tgt.mul(pi_basis[q], tail)))
         for q in range(n) for x in range(k)]))
    return ck.records


MULTIPLIERS = (".multiplier-left", ".multiplier-right",
               ".multiplier-right-alt")


@pytest.mark.parametrize("make", [restrict_a3_file, restrict_d6_s3,
                                  lambda: counit_morphism(
                                      models.builtin("taft3"))])
@pytest.mark.parametrize("change", [None, "negate", "zero", "move"])
def test_multiplier_records_match_the_loop_forms(make, change,
                                                dual_morphism_cache):
    """Status, residual and witness of the three multiplier records equal
    those of the value loops, on pi_hat and on its mutants."""
    dm = dual_morphism_cache(make)
    if change:
        dm = Fault("pi_hat", change).apply(dm)
    got = check_dual_morphism(dm)
    want = _old_multiplier_records(dm)
    for suffix in MULTIPLIERS:
        assert _record(got, suffix) == _record(want, suffix), suffix
        assert _record(got, suffix)[1] == ("fail" if change else "pass")


def _old_vaes_records(dm):
    """dual-homomorphism, -star and -unital as certify_vaes built them
    before they restated the dual.* records."""
    dg, dh, hat = dm.source_duality.dual, dm.target_duality.dual, dm.pi_hat
    ck = Checker(f"{dm.morphism.label}.vaes")
    ck.exact("dual-homomorphism", "",
             lambda: hat @ dh.mult - dg.mult @ hat.tensor(hat))
    ck.exact("dual-star", "", lambda: hat @ dh.invol - dg.invol @ hat.conj())
    ck.exact("dual-unital", "", lambda: hat(dh.unit) - dg.unit)
    return ck.records


RESTATED = {".vaes.dual-homomorphism": ".dual.multiplicative",
            ".vaes.dual-star": ".dual.star",
            ".vaes.dual-unital": ".dual.unital"}


@pytest.mark.parametrize("make", [restrict_a3_file, restrict_d6_s3])
def test_vaes_restates_the_dual_morphism_records(make, dual_morphism_cache):
    """Each restated vaes record has the status, residual and witness of
    the dual.* record it restates, and of the difference it used to build,
    on pi_hat and on its mutants; each fails on some mutant."""
    clean = dual_morphism_cache(make)
    failed = set()
    # the column at the target's convolution unit doubled is the one
    # fault here that moves pi_hat(1)
    for fault in (None, *map(part_fault, PI_HAT_MOVES),
                  Fault("pi_hat", "double", "unit-column")):
        dm = fault.apply(clean) if fault else clean
        dual = check_dual_morphism(dm)
        got, want = certify_vaes(dm, dual), _old_vaes_records(dm)
        for suffix, decided in RESTATED.items():
            rec = _record(got, suffix)
            assert rec == _record(want, suffix), (fault, suffix)
            assert rec[1:] == _record(dual, decided)[1:], (fault, suffix)
            assert fault or rec[1] == "pass"
            if rec[1] == "fail":
                failed.add(suffix)
    assert failed == set(RESTATED)


def _old_vaes_functional_records(dm):
    """preimage-independence and functional-identity as certify_vaes built
    them, pair by pair with one solve per target basis vector, before each
    became one identity on pairs."""
    mor = dm.morphism
    src, tgt, pi = mor.source, mor.target, mor.pi
    dg, dh = dm.source_duality.dual, dm.target_duality.dual
    k = tgt.dim
    ck = Checker(f"{mor.label}.vaes")
    ker_pi = kernel(pi)
    x_basis = [tgt.basis_vec(x) for x in range(k)]
    hat_basis = [dm.pi_hat(xv) for xv in x_basis]

    def preimage_free():
        for v in ker_pi:
            for x in range(k):
                val = src.counit_of(dg.mul(hat_basis[x], v))
                if not val.is_zero():
                    raise CheckFailure(
                        f"counit(pi_hat(e_{x}) * v) = {val!r} for kernel "
                        f"element v = {src.show(v)}")
        return True

    if ker_pi:
        ck.exact("preimage-independence", "", preimage_free)
    else:
        ck.skip("preimage-independence", "",
                "pi is injective; preimages are unique")

    def functional_identity():
        for a, av in enumerate(x_basis):
            b, _ = solve_linear(pi, av)
            if b is None:
                raise CheckFailure(f"target basis {a} has no preimage")
            for x, xv in enumerate(x_basis):
                lhs = tgt.counit_of(dh.mul(xv, av))
                rhs = src.counit_of(dg.mul(hat_basis[x], b))
                if lhs != rhs:
                    raise CheckFailure(
                        f"(x, a) = ({x}, {a}): counit(x * a) = {lhs!r}, "
                        f"counit(pi_hat(x) * b) = {rhs!r}")
        return True

    ck.exact("functional-identity", "", functional_identity)
    return ck.records


VAES_FUNCTIONAL = (".vaes.preimage-independence", ".vaes.functional-identity")


def _vaes_cases(clean, moves=PI_HAT_MOVES):
    """clean, its pi_hat changed by ``moves`` as in the multiplier test,
    its pi and convolution products changed as in the streamed-bimodule
    test, and, so that many pairs fail at once and the order of the
    witness shows, pi_hat with e_u planted in every column, u the first
    row outside its image (or 0), alone and with pi's middle entry
    dropped."""
    shifted = Fault("pi_hat", "plant", "free-row").apply(clean)
    return [clean, *(part_fault(change).apply(clean)
                     for change in (*moves, *PART_CHANGES)),
            shifted, part_fault("pi-drop").apply(shifted)]


@pytest.mark.parametrize("make, moves", [
    (restrict_a3_file, ("negate", "zero", "move")),
    (restrict_d6_s3, ("negate", "zero", "move")),
    # pi_hat is onto, so no entry moves outside its image
    (lambda: identity_morphism(models.builtin("taft3")), ("negate", "zero"))])
def test_vaes_functional_records_match_the_loop_forms(make, moves,
                                                      dual_morphism_cache):
    """preimage-independence and functional-identity, each one identity on
    pairs, have the status, residual and witness of the pair-by-pair
    loops, on pi_hat and on its mutants and those of pi and of both
    convolution products.  On the restrictions each record fails on some
    mutant; taft3's dual is not commutative, so its identity morphism pins
    the order pi_hat(x) * b."""
    failed = set()
    for dm in _vaes_cases(dual_morphism_cache(make), moves):
        got = certify_vaes(dm, check_dual_morphism(dm))
        want = _old_vaes_functional_records(dm)
        for suffix in VAES_FUNCTIONAL:
            rec = _record(got, suffix)
            assert rec == _record(want, suffix), suffix
            if rec[1] == "fail":
                failed.add(suffix)
    if make in (restrict_a3_file, restrict_d6_s3):
        assert failed == set(VAES_FUNCTIONAL)


def test_vaes_functional_identity_of_a_non_surjective_pi_matches_the_loop(
        dual_morphism_cache):
    """A target basis vector with no preimage fails the record as the
    loop did, unless an earlier one fails a pair first."""
    clean = dual_morphism_cache(non_surjective_embedding)
    for dm in _vaes_cases(clean, ("negate", "zero")):  # pi_hat is onto
        got = certify_vaes(dm, check_dual_morphism(dm))
        want = _old_vaes_functional_records(dm)
        for suffix in VAES_FUNCTIONAL:
            assert _record(got, suffix) == _record(want, suffix), suffix
    rec = _record(certify_vaes(clean, check_dual_morphism(clean)),
                  ".vaes.functional-identity")
    assert rec[1:] == ("fail", None, "target basis 0 has no preimage")


# -- the layout guard ----------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "qgcheck"

# Outside linalg only the model builders, and one witness text that names
# a basis pair, may still decode a flattened index.
LAYOUT_ALLOWED = {"models.py": None, "gns.py": {"_require_slices"}}


def _sites(tree: ast.AST, hit) -> list[tuple[tuple[str, ...], int]]:
    """(enclosing function names, line) of every node that ``hit`` picks."""
    sites = []

    def visit(node, stack):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + (node.name,)
        if hit(node):
            sites.append((stack, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(tree, ())
    return sites


def _divmod_sites(tree: ast.AST):
    """(enclosing function names, line) of every use of divmod."""
    return _sites(tree, lambda n: isinstance(n, ast.Name) and n.id == "divmod")


def test_only_linalg_decodes_flattened_indices():
    seen, outside = set(), []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        allowed = LAYOUT_ALLOWED.get(path.name, set())
        for stack, line in _divmod_sites(ast.parse(path.read_text())):
            if allowed is None or allowed & set(stack):
                seen.add(path.name)
            else:
                outside.append(f"{path.name}:{line} in {'.'.join(stack)}")
    assert not outside, "flattened-index layout decoded outside linalg: " \
        + ", ".join(outside)
    # the scan finds the witness text it allows
    assert "gns.py" in seen


# -- the vector guard ----------------------------------------------------------


def _scalar_domain_call(node: ast.AST) -> bool:
    """A call of the LinMap constructor or of a LinMap classmethod whose
    domain, the first argument, is the literal ()."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func.value if isinstance(node.func, ast.Attribute) else node.func
    if not (isinstance(f, ast.Name) and f.id == "LinMap"):
        return False
    dom = node.args[0] if node.args else next(
        (k.value for k in node.keywords if k.arg in ("dom", "dims")), None)
    return isinstance(dom, ast.Tuple) and not dom.elts


def test_only_linalg_builds_maps_with_no_domain_legs():
    """A map with no domain legs is a Vec, so a vector is used as the map
    it is; outside linalg none is rebuilt by hand as LinMap((), ...)."""
    outside = [f"{path.name}:{line} in {'.'.join(stack)}"
               for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
               for stack, line in _sites(ast.parse(path.read_text()),
                                         _scalar_domain_call)]
    assert not outside, "vector built as a map outside linalg: " \
        + ", ".join(outside)
    # the scan finds the forms it forbids, and only those
    probe = ("LinMap((), a, {})\nLinMap._of((), a, {})\n"
             "LinMap.zero(dom=(), cod=a)\nLinMap.functional(a, ())\n"
             "LinMap(a, (), {})\n")
    assert [line for _, line in _sites(ast.parse(probe), _scalar_domain_call)] \
        == [1, 2, 3]


# -- the unused-import guard --------------------------------------------------


def _imports(body) -> list:
    """(bound name, line) of every import in ``body``, in its compound
    statements included but not in nested functions or classes,
    ``from __future__`` aside."""
    found, todo = [], list(body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, ast.Import):
            found += [((a.asname or a.name).split(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler, ast.With,
                               ast.For, ast.While)):
            todo += ast.iter_child_nodes(node)
    return found


def _exported(tree: ast.Module) -> set[str]:
    """The string constants of a module-level ``__all__`` assignment,
    a literal list or an expression derived from other names."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {e.value for e in ast.walk(node.value)
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return set()


def test_every_module_import_is_used():
    """A module-level import is read as a name in its module (annotations
    count) or re-exported through ``__all__``; an import inside a function
    is read as a name in that function."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(tree, _exported(tree))] + [
            (f, set()) for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope, exported in scopes:
            used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            unused += [f"{path.name}:{line} {name}"
                       for name, line in _imports(scope.body)
                       if name not in used | exported]
    assert not unused, "unused imports: " + ", ".join(unused)


def _is_tensor(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tensor")


def test_no_tensor_is_formed_only_to_be_passed_on():
    """No module forms x.tensor(y) only to hand it to a map: as the right
    operand of ``@``, or as an argument of a call (``apply_on_legs`` or a
    map applied to a vector).  ``apply_on_legs(f, legs, x, y)`` applies f
    to legs of x (x) y without forming it; a tensor on the left of ``@``,
    a map on a tensor space, is not passed on."""
    passed_on = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                operands = [node.right]
            elif isinstance(node, ast.Call):
                operands = node.args + [k.value for k in node.keywords]
            else:
                continue
            passed_on += [f"{path.name}:{t.lineno}" for t in operands
                          if _is_tensor(t)]
    assert not passed_on, "tensors formed to be passed on: " + ", ".join(passed_on)
