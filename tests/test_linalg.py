"""Leg-aware sparse linear algebra over exact scalars."""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from qgcheck import linalg
from qgcheck.errors import LegMismatch, SingularMap
from qgcheck.linalg import (
    LinMap,
    Vec,
    apply_on_legs,
    inverse,
    kernel,
    minimal_polynomial,
    rank,
    require_bijective,
    solve_linear,
    to_multi,
)
from qgcheck.modelio import _scalar_to_json
from qgcheck.models import BUILTIN_MODELS
from qgcheck.report import Checker, _diff_witness
from qgcheck.scalars import Cyc, _context
from test_scalars import _phi, _poly


def rand_map(rng, dom, cod, density=0.5, order=1):
    entries = []
    for i in range(cod):
        for j in range(dom):
            if rng.random() < density:
                entries.append((i, j, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    return LinMap.from_entries((dom,), (cod,), entries)


def test_compose_and_leg_checks():
    f = LinMap.from_dense((2,), (3,), [[1, 0], [2, 1], [0, 3]])
    g = LinMap.from_dense((3,), (2,), [[1, 1, 0], [0, 1, 1]])
    h = g @ f
    assert h.dom == (2,) and h.cod == (2,)
    assert h.entry(0, 0) == 3
    with pytest.raises(LegMismatch):
        _ = f @ f


def test_tensor_shapes_and_values():
    f = LinMap.from_dense((2,), (2,), [[1, 2], [0, 1]])
    g = LinMap.from_dense((3,), (3,), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    t = f.tensor(g)
    assert t.dom == (2, 3) and t.cod == (2, 3)
    fn, gn = f.to_numpy(), g.to_numpy()
    assert np.allclose(t.to_numpy(), np.kron(fn, gn))


def test_permutation_as_composed_flips():
    # one-line permutation (2 3 1): output legs are input legs (2,3,1),
    # which factors as flip(1,2) after flip(2,3) on three 2-dim legs
    dims = (2, 2, 2)
    perm = LinMap.leg_permutation(dims, (1, 2, 0))
    i2 = LinMap.identity((2,))
    f23 = i2.tensor(LinMap.flip(2, 2))
    f12 = LinMap.flip(2, 2).tensor(i2)
    assert perm == f23 @ f12
    assert f23 == LinMap.leg_permutation(dims, (0, 2, 1))
    # entrywise against the direct index permutation
    for idx in range(8):
        i, j, k = to_multi(idx, dims)
        out = perm.apply(Vec.basis(dims, (i, j, k)))
        assert out == Vec.basis(dims, (j, k, i))


def test_disjoint_legs_commute():
    rng = random.Random(7)
    a = rand_map(rng, 2, 2)
    b = rand_map(rng, 3, 3)
    ea = a.tensor(LinMap.identity((3, 2)))
    eb = LinMap.identity((2,)).tensor(b).tensor(LinMap.identity((2,)))
    for _ in range(10):
        v = Vec((2, 3, 2), {rng.randrange(12): Cyc.rational(Fraction(rng.randint(1, 5)))})
        assert ea.apply(eb.apply(v)) == eb.apply(ea.apply(v))
    assert ea @ eb == eb @ ea


def test_apply_on_legs_matches_embedding():
    rng = random.Random(3)
    dims = (2, 2, 3)
    f = rand_map(rng, 2, 2, density=0.8)
    g = rand_map(rng, 3, 3, density=0.8)
    m = f.tensor(g)
    big = LinMap.identity((2,)).tensor(m)
    v = Vec(dims, {i: Cyc.rational(Fraction(rng.randint(-3, 3))) for i in range(12)})
    assert apply_on_legs(m, [1, 2], v) == big.apply(v)
    # legs (0, 2): h (x) 1 conjugated by 1 (x) flip, as the pentagon builds w13
    h = rand_map(rng, 6, 6, density=0.8).relabel((2, 3), (2, 3))
    i2 = LinMap.identity((2,))
    h02 = i2.tensor(LinMap.flip(3, 2)) @ h.tensor(i2) @ i2.tensor(LinMap.flip(2, 3))
    assert h02 == LinMap.leg_permutation((2, 3, 2), (0, 2, 1)) \
        @ h.tensor(i2) @ LinMap.leg_permutation(dims, (0, 2, 1))
    assert apply_on_legs(h, [0, 2], v) == h02.apply(v)

    # a map input: f acts on every column, each equal to the Vec result
    x = rand_map(rng, 4, 12, density=0.6).relabel((4,), dims)
    out = apply_on_legs(m, [1, 2], x)
    assert out == big @ x
    for j in range(4):
        assert out.column(j) == apply_on_legs(m, [1, 2], x.column(j))
    assert apply_on_legs(h, [0, 2], x) == h02 @ x

    # a functional on leg 0 removes that leg
    phi = LinMap.functional((2,), [Cyc.rational(Fraction(2)), Cyc.rational(Fraction(-1))])
    phi0 = phi.tensor(LinMap.identity((2, 3)))
    assert apply_on_legs(phi, [0], v) == phi0.apply(v)
    assert apply_on_legs(phi, [0], x) == phi0 @ x

    # a product on legs (0, 2) of four legs: the product lands at leg 0
    dims4 = (2, 3, 2, 2)
    mult = rand_map(rng, 4, 2, density=0.8).relabel((2, 2), (2,))
    mult02 = mult.tensor(LinMap.identity((3, 2))) \
        @ LinMap.leg_permutation(dims4, (0, 2, 1, 3))
    v4 = Vec(dims4, {i: Cyc.rational(Fraction(rng.randint(-3, 3))) for i in range(24)})
    x4 = rand_map(rng, 3, 24, density=0.5).relabel((3,), dims4)
    assert apply_on_legs(mult, [0, 2], v4) == mult02.apply(v4)
    assert apply_on_legs(mult, [0, 2], x4) == mult02 @ x4
    for j in range(3):
        assert apply_on_legs(mult, [0, 2], x4).column(j) \
            == apply_on_legs(mult, [0, 2], x4.column(j))

    # a map that changes arity needs ascending legs
    for arg in (v4, x4):
        with pytest.raises(LegMismatch):
            apply_on_legs(mult, [2, 0], arg)


@pytest.mark.parametrize("plan", [
    [], [(4, 3, 1)],
    [(12, 2, 3), (4, 3, 1)],  # consecutive legs in order: one run
    [(12, 2, 1), (1, 4, 2)], [(1, 4, 6), (4, 3, 2), (12, 2, 1)]])
def test_digit_readers_are_the_sum_of_digit_times_weight(plan):
    # one leg (stride, size, weight) adds index // stride % size * weight;
    # a plan of 0 or 1 run is read without a generator
    read = linalg._runs(plan)
    assert [read(i) for i in range(24)] == [
        sum(i // s % n * t for s, n, t in plan) for i in range(24)]


def test_apply_on_legs_entry_order():
    """Output entries come in the order the input entries reach them: for
    each input entry in turn, each entry of f's column in its stored order,
    a repeated index keeping its first place and a cancelled one dropping
    out.  FAIL witnesses name the first of several equal worst entries, so
    this order is part of every report."""
    def items(data):
        return [(k, v) for k, v in data.items()]

    # arity kept: f on leg 1 of (2, 2); column 0 of f stores row 1 first
    f = LinMap((2,), (2,), {0: {1: 2, 0: 3}, 1: {0: 5}})
    v = Vec((2, 2), {3: 1, 0: 1, 2: 1})
    assert items(apply_on_legs(f, [1], v).data) \
        == [(2, 8), (1, 2), (0, 3), (3, 2)]
    x = LinMap((3,), (2, 2), {2: {3: 1, 0: 1, 2: 1}, 0: {1: 1},
                              1: {0: 5, 1: -3}})
    out = apply_on_legs(f, [1], x)
    assert list(out.cols) == [2, 0, 1]
    assert items(out.cols[2]) == [(2, 8), (1, 2), (0, 3), (3, 2)]
    assert items(out.cols[0]) == [(0, 5)]
    assert items(out.cols[1]) == [(1, 10)]  # (0, 0) cancels: 15 - 15

    # arity changed: a product on legs (0, 2) of (2, 2, 2) lands at leg 0
    g = LinMap((2, 2), (2,), {1: {1: 1, 0: 2}, 2: {0: 1}, 3: {1: 1}})
    v = Vec((2, 2, 2), {6: 1, 1: 1, 3: 1})
    assert items(apply_on_legs(g, [0, 2], v).data) \
        == [(1, 3), (2, 1), (0, 2), (3, 1)]
    x = LinMap((3,), (2, 2, 2), {1: {6: 1, 1: 1, 3: 1}, 2: {0: 1},
                                 0: {7: 1, 1: -1}})
    out = apply_on_legs(g, [0, 2], x)
    assert list(out.cols) == [1, 0]  # column 2 meets only f's zero column
    assert items(out.cols[1]) == [(1, 3), (2, 1), (0, 2), (3, 1)]
    assert items(out.cols[0]) == [(3, 1), (2, -1), (0, -2)]


def stored(t):
    return [(j, list(col.items())) for j, col in t.cols.items()]


def test_apply_on_legs_on_two_operands_keeps_the_tensor_order():
    """apply_on_legs(f, legs, x, y) is apply_on_legs(f, legs, x (x) y) in
    stored order: column pairs x-major, and in each, for each entry of x
    in turn, the entries of y that reach a nonempty column of f, in y's
    order, even when they reach several columns of f."""
    def pinned(f, legs, x, y, want):
        got = apply_on_legs(f, legs, x, y)
        assert stored(got) == stored(apply_on_legs(f, legs, x.tensor(y))) == want

    # arity kept: f on the leg of y, then on the leg of x
    f = LinMap((2,), (2,), {0: {1: 2, 0: 3}, 1: {0: 5}})
    x = LinMap((2,), (2,), {1: {1: 1, 0: 2}, 0: {0: 1}})
    y = LinMap((2,), (2,), {0: {1: 1, 0: 1}, 1: {1: -3}})
    pinned(f, [1], x, y, [(2, [(2, 8), (3, 2), (0, 16), (1, 4)]),
                          (3, [(2, -15), (0, -30)]),
                          (0, [(0, 8), (1, 2)]), (1, [(0, -15)])])
    pinned(f, [0], x, y, [(2, [(1, 11), (0, 11), (3, 4), (2, 4)]),
                          (3, [(1, -33), (3, -12)]),
                          (0, [(3, 2), (1, 3), (2, 2), (0, 3)]),
                          (1, [(3, -6), (1, -9)])])
    # arity changed, on a leg of each: entry 1 of x meets f's columns 2 and
    # 3, so y's entries reaching either are taken in y's order (1, 2, 3, 0);
    # entry 0 meets only column 1, reached by y's entries 1 and 3
    g = LinMap((2, 2), (2,), {1: {1: 1, 0: 2}, 2: {0: 1}, 3: {1: 1}})
    x = LinMap((2,), (2,), {0: {1: 1, 0: 1}, 1: {0: 2}})
    y = Vec((2, 2), {1: 1, 2: 1, 3: 1, 0: 1})
    pinned(g, [0, 2], x, y, [(0, [(2, 2), (1, 3), (3, 2), (0, 3)]),
                             (1, [(2, 2), (0, 4), (3, 2), (1, 4)])])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_apply_on_legs_on_two_operands_matches_the_formed_tensor(data):
    """On random operands, legs and maps of either arity, the two-operand
    kernel and ``tensor`` give what forming x (x) y gives, in stored order."""
    dims = st.lists(st.integers(1, 3), max_size=3).map(tuple)
    xc, yc = data.draw(dims), data.draw(dims)
    xd, yd = data.draw(dims.map(lambda t: t[:2])), data.draw(dims.map(lambda t: t[:2]))
    both = xc + yc
    legs = data.draw(st.permutations(range(len(both))))
    legs = legs[:data.draw(st.integers(0, len(both)))]
    fdom = tuple(both[p] for p in legs)
    fcod = fdom
    if legs and data.draw(st.booleans()):
        legs = sorted(legs)
        fdom = tuple(both[p] for p in legs)
        fcod = data.draw(dims.map(lambda t: t[:2]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))

    def sparse(dom, cod):
        entries = [(i, j, Cyc.zeta(4, rng.randrange(4)) * rng.randint(-2, 2))
                   for j in range(LinMap.zero(dom, cod).dom_dim)
                   for i in range(LinMap.zero(dom, cod).cod_dim)
                   if rng.random() < 0.6]
        rng.shuffle(entries)  # stored order is not index order
        return LinMap.from_entries(dom, cod, entries)

    f, x, y = sparse(fdom, fcod), sparse(xd, xc), sparse(yd, yc)
    formed = x.tensor(y)
    assert stored(apply_on_legs(f, legs, x, y)) \
        == stored(apply_on_legs(f, legs, formed))
    assert formed == LinMap.from_entries(
        xd + yd, xc + yc, ((i1 * y.cod_dim + i2, j1 * y.dom_dim + j2, u * v)
                           for i1, j1, u in x.entries()
                           for i2, j2, v in y.entries()))


def test_solve_reports_inconsistent_vs_zero_kernel():
    a = LinMap.from_dense((2,), (3,), [[1, 0], [0, 1], [1, 1]])
    sol, ker = solve_linear(a, Vec.from_list((3,), [1, 2, 3]))
    assert sol is not None and not ker
    assert a.apply(sol) == Vec.from_list((3,), [1, 2, 3])
    bad, ker = solve_linear(a, Vec.from_list((3,), [1, 2, 4]))
    assert bad is None and not ker
    # in a map of right-hand sides the inconsistent column is left zero
    both = LinMap.from_dense((2,), (3,), [[1, 1], [2, 2], [3, 4]])
    x, ker = solve_linear(a, both)
    assert x == LinMap.from_dense((2,), (2,), [[1, 0], [2, 0]]) and not ker
    assert list((a @ x - both).cols) == [1]


def test_kernel_of_invariance_style_system():
    # the averaging-difference system for functions on a 2-element group:
    # rows encode sum_l D[(k,l)][j] p_l - p_j [k-th unit coord] = 0 and its
    # kernel must be the constants
    rows = []
    # coproduct of the 2-point function algebra: D[(k,l)][j] = [k+l=j mod 2]
    for k in range(2):
        for j in range(2):
            row = [0, 0]
            for l in range(2):
                if (k + l) % 2 == j:
                    row[l] += 1
            row[j] -= 1  # unit of the function algebra is (1,1)
            rows.append(row)
    m = LinMap.from_dense((2,), (4,), rows)
    ker = kernel(m)
    assert len(ker) == 1
    v = ker[0]
    assert v.get(0) == v.get(1) and not v.get(0).is_zero()


def test_det_and_inverse_exact():
    rng = random.Random(11)
    for trial in range(8):
        n = rng.randint(1, 5)
        m = rand_map(rng, n, n, density=0.7)
        if _sympy_matrix(m, 1).det() == 0:
            for decide in (require_bijective, inverse):
                with pytest.raises(SingularMap):
                    decide(m)
            continue
        assert require_bijective(m) is True
        mi = inverse(m)
        assert mi @ m == LinMap.identity((n,))
        assert m @ mi == LinMap.identity((n,))
    # permutations, of either parity, are bijective and inverted by their
    # transposes
    for p in (LinMap.leg_permutation((2, 2, 2), (1, 2, 0)),
              LinMap.flip(2, 2), LinMap.flip(2, 3)):
        assert require_bijective(p) is True
        assert inverse(p) == p.transpose()


def test_kernel_and_inverse_entry_order():
    """Witnesses print kernel vectors and inverse columns in dict order,
    so that order is part of every report and is pinned here."""
    singular = LinMap.from_dense((3,), (3,), [[1, 2, 3], [4, 5, 6],
                                              [7, 8, 9]])
    (v,) = kernel(singular)
    # the free column first, then the pivot columns in column order
    assert list(v.data.items()) == [(2, 1), (0, 1), (1, -2)]
    record = Checker().exact("inverse", "", lambda: inverse(singular))
    assert record.witness == ("map of dimension 3 has rank 2 "
                              "(kernel sample: {2: 1, 0: 1, 1: -2})")
    # rows of equal length: the lowest index pivots, which sets the
    # column order; rows within a column follow the pivot columns
    inv = inverse(LinMap.from_dense((3,), (3,), [[2, 1, 1], [1, 3, 2],
                                                 [1, 1, 4]]))
    f = Fraction
    assert [(j, list(col.items())) for j, col in inv.cols.items()] == [
        (0, [(0, f(5, 8)), (1, f(-1, 8)), (2, f(-1, 8))]),
        (1, [(0, f(-3, 16)), (1, f(7, 16)), (2, f(-1, 16))]),
        (2, [(0, f(-1, 16)), (1, f(-3, 16)), (2, f(5, 16))])]


def test_rank_and_functional():
    phi = LinMap.functional((3,), [1, 1, 0])
    assert phi.cod == ()
    v = Vec.from_list((3,), [2, 3, 5])
    assert phi.apply(v).get(0).rational_value() == 5
    assert rank(phi) == 1


def test_vector_ops():
    v = Vec.from_list((2,), [1, 2])
    w = Vec.from_list((2,), [0, 5])
    assert (v + w).get(1).rational_value() == 7
    t = v.tensor(w)
    assert t.dims == (2, 2)
    assert t.get((1, 1)).rational_value() == 10


def test_results_with_no_domain_legs_are_vectors():
    """A vector is the map with no domain legs: every operation whose
    result has none returns a Vec, whose entries are column 0."""
    v = Vec.from_list((2,), [1, 2])
    w = Vec.from_list((2,), [0, 5])
    m = LinMap.from_dense((2,), (2,), [[1, 1], [0, 3]])
    z = Cyc.zeta(3)
    results = {
        "v + w": (v + w, [1, 7]),
        "v - w": (v - w, [1, -3]),
        "-v": (-v, [-1, -2]),
        "c * v": (3 * v, [3, 6]),
        "scale(0)": (v.scale(0), [0, 0]),
        "conj": (Vec.from_list((2,), [z, 1]).conj(), [z.conj(), 1]),
        "v (x) w": (v.tensor(w), [0, 5, 0, 10]),
        "M @ v": (m @ v, [3, 6]),
        "M(v)": (m(v), [3, 6]),
        "apply_on_legs": (apply_on_legs(LinMap.flip(2, 2), (0, 1),
                                        v.tensor(w)), [0, 0, 5, 10]),
        "regroup": (m.regroup((0, 1), 2), [1, 1, 0, 3]),
        "zero": (LinMap.zero((), (2,)), [0, 0]),
        "column": (m.column(1), [1, 3]),
    }
    for name, (got, want) in results.items():
        assert type(got) is Vec and got.dom == (), name
        assert got == Vec.from_list(got.dims, want), name
        assert dict(got.data) == {i: x for i, x in enumerate(want) if x}, name
    with pytest.raises(TypeError):
        v.data[0] = Cyc.one()
    # a vector difference is still witnessed by its entry index
    assert _diff_witness(v - w) == (3.0, "entry 1: -3")


# -- results of the trusted constructor ------------------------------------


@st.composite
def sparse_pairs(draw):
    """Two square maps over Q(zeta_N), N in {1, 3, 4}, with small entries.

    Coefficients lie in -1..1, so repeated positions and products cancel
    exactly often enough to empty entries and whole columns.
    """
    order = draw(st.sampled_from([1, 3, 4]))
    n = draw(st.integers(1, 3))
    deg = _context(order).degree
    scalar = st.lists(st.integers(-1, 1), min_size=deg, max_size=deg).map(
        lambda cs: Cyc(order, cs))
    index = st.integers(0, n - 1)

    def one_map():
        entries = draw(st.lists(st.tuples(index, index, scalar),
                                max_size=2 * n * n))
        return LinMap.from_entries((n,), (n,), entries)

    return one_map(), one_map(), draw(scalar)


def _assert_normalized(m: LinMap):
    assert m == LinMap(m.dom, m.cod, m.cols)
    for col in m.cols.values():
        assert col, "empty column stored"
        assert all(isinstance(v, Cyc) and not v.is_zero()
                   for v in col.values()), "zero entry stored"


@settings(max_examples=80, deadline=None)
@given(sparse_pairs())
def test_algebra_results_are_normalized(operands):
    a, b, c = operands
    n = a.dom_dim
    results = {
        "a @ b": (a @ b, LinMap.from_entries(
            a.dom, a.cod, ((i, j, m * v) for k, j, v in b.entries()
                           for i, k2, m in a.entries() if k2 == k))),
        "a (x) b": (a.tensor(b), LinMap.from_entries(
            a.dom + b.dom, a.cod + b.cod,
            ((i1 * n + i2, j1 * n + j2, v1 * v2)
             for i1, j1, v1 in a.entries() for i2, j2, v2 in b.entries()))),
        "a + b": (a + b, LinMap.from_entries(
            a.dom, a.cod, list(a.entries()) + list(b.entries()))),
        "a - b": (a - b, LinMap.from_entries(
            a.dom, a.cod, list(a.entries())
            + [(i, j, -v) for i, j, v in b.entries()])),
        "c a": (a.scale(c), LinMap.from_entries(
            a.dom, a.cod, ((i, j, c * v) for i, j, v in a.entries()))),
        "a + (-1) a": (a + a.scale(-1), LinMap.zero(a.dom, a.cod)),
        "a - a": (a - a, LinMap.zero(a.dom, a.cod)),
        "(a + b) - b": ((a + b) - b, a),
    }
    for name, (got, want) in results.items():
        _assert_normalized(got)
        assert got == want, name
    # a one-pass difference keeps the order of a plus the negated copy
    stored = lambda t: [(j, list(col.items())) for j, col in t.cols.items()]
    assert stored(a - b) == stored(a + b.scale(-1))



# -- differential oracle: exact elimination against SymPy over Q(zeta_N) ----

ELIM_ORDERS = (1, 3, 4)


@functools.lru_cache(maxsize=None)
def _field(order):
    """Q(zeta_order) in SymPy, with zeta as its generator."""
    if order == 1:
        return sympy.QQ
    zeta = sympy.exp(2 * sympy.pi * sympy.I / order)
    field = sympy.QQ.algebraic_field(zeta)
    assert field.mod.to_list() == _phi(order).all_coeffs()
    return field


def _to_field(c: Cyc, order):
    """c as an element of _field(order), through the residue mod Phi_N."""
    coeffs = [sympy.QQ(int(r.p), int(r.q))
              for r in _poly(c.coeffs, c.order).all_coeffs()]
    field = _field(order)
    if c.order == 1 or order == 1:  # a rational value
        return field.convert(coeffs[-1])
    return field(coeffs)


def _sympy_matrix(m: LinMap, order):
    field = _field(order)
    rows = [[field.zero] * m.dom_dim for _ in range(m.cod_dim)]
    for i, j, c in m.entries():
        rows[i][j] = _to_field(c, order)
    return DomainMatrix(rows, (m.cod_dim, m.dom_dim), field)


@st.composite
def field_matrices(draw, square=False, with_rhs=False, rhs_map=False):
    """A sparse map up to 5 x 5 with small entries in Z[zeta]/q, q <= 3,
    and a right-hand side: a vector, or with ``rhs_map`` a map whose
    columns are images of the map (consistent) and other vectors, in a
    drawn order."""
    order = draw(st.sampled_from(ELIM_ORDERS))
    deg = len(Cyc.zeta(order).coeffs)
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    entry = st.tuples(st.lists(st.integers(-2, 2), min_size=deg,
                               max_size=deg),
                      st.integers(1, 3)).map(
        lambda t: Cyc(order, [Fraction(a, t[1]) for a in t[0]]))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        entry, max_size=rows * cols))
    m = LinMap.from_entries((cols,), (rows,),
                            [(i, j, c) for (i, j), c in cells.items()])
    if not with_rhs:
        return order, m
    rhs = draw(st.dictionaries(st.integers(0, rows - 1), entry, max_size=rows))
    if not rhs_map:
        return order, m, Vec((rows,), {i: c for i, c in rhs.items() if c})
    images = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entry,
                                           max_size=cols), max_size=3))
    columns = draw(st.permutations(
        [rhs] + [dict(m(Vec((cols,), v)).data) for v in images]))
    return order, m, LinMap((len(columns),), (rows,), dict(enumerate(columns)))


@settings(max_examples=40, deadline=None)
@given(field_matrices(square=True))
def test_det_and_inverse_match_sympy(case):
    order, m = case
    if _sympy_matrix(m, order).det() == _field(order).zero:
        for decide in (require_bijective, inverse):
            with pytest.raises(SingularMap) as exc:
                decide(m)
            assert exc.value.kernel == kernel(m)
        return
    assert require_bijective(m) is True
    inv = inverse(m)
    assert inv @ m == LinMap.identity(m.dom) == m @ inv


@settings(max_examples=40, deadline=None)
@given(field_matrices())
def test_rank_and_kernel_match_sympy(case):
    order, m = case
    r = _sympy_matrix(m, order).rank()
    assert rank(m) == r
    ker = kernel(m)
    assert len(ker) == m.dom_dim - r
    assert all(m.apply(v).is_zero() for v in ker)


@settings(max_examples=40, deadline=None)
@given(field_matrices(with_rhs=True))
def test_solve_linear_matches_sympy(case):
    order, m, b = case
    a = _sympy_matrix(m, order)
    col = _sympy_matrix(LinMap.from_entries(
        (1,), m.cod, [(i, 0, c) for i, c in b.items()]), order)
    consistent = a.hstack(col).rank() == a.rank()
    x, ker = solve_linear(m, b)
    assert (x is not None) == consistent
    if x is not None:
        assert m.apply(x) == b
    assert ker == kernel(m)
    assert len(ker) == m.dom_dim - a.rank()


@settings(max_examples=40, deadline=None)
@given(field_matrices(with_rhs=True, rhs_map=True))
def test_solve_linear_solves_each_column_of_a_map(case):
    """One solve of a map of right-hand sides gives, column by column, what
    solving that column alone gives, stored in the same order; a column
    with no solution is left zero, a nonzero column of m @ x - b."""
    order, m, b = case
    x, ker = solve_linear(m, b)
    assert x.dom == b.dom and x.cod == m.dom and ker == kernel(m)
    gap = m @ x - b
    for j in range(b.dom_dim):
        alone, _ = solve_linear(m, b.column(j))
        if alone is None:
            assert j not in x.cols and j in gap.cols
        else:
            assert list(x.column(j).entries()) == list(alone.entries())
            assert j not in gap.cols


def _old_inverse(m: LinMap) -> LinMap:
    """inverse as it read its columns off the eliminated rows itself,
    before it became the square case of solve_linear."""
    n = m.dom_dim
    elim = linalg._square_elimination(m, LinMap.identity(m.cod))
    cols = {j: {} for j in range(n)}
    for r, c in elim.pivots:
        for j, v in elim.rows[r].items():
            if j >= n:
                cols[j - n][c] = v
    return LinMap(m.cod, m.dom, cols)


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_inverse_of_each_pairing_matrix_is_the_old_loop(haar_cache, name):
    """inverse, read through solve_linear, keeps the value, the sorted
    stored order and the scalar orders of the loop it replaced, on the
    pairing matrix P[i, j] = phi(e_i e_j) of every built-in model."""
    pmat = haar_cache(name).pmat
    linalg._MEMO.clear()
    got, want = inverse(pmat), _old_inverse(pmat)
    assert got == want
    assert [(i, j, v, v.order) for i, j, v in got.entries()] \
        == [(i, j, v, v.order) for i, j, v in want.entries()]
    assert list(got.entries()) == sorted(got.entries(),
                                         key=lambda e: (e[1], e[0]))


def test_each_call_runs_one_elimination(eliminations):
    singular = LinMap.from_dense((3,), (3,), [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    b = Vec.from_list((3,), [1, 2, 5])
    x, ker = solve_linear(singular, b)
    assert singular.apply(x) == b and len(ker) == 1
    assert len(eliminations) == 1
    with pytest.raises(SingularMap) as exc:
        inverse(singular)
    assert len(eliminations) == 2
    assert exc.value.kernel == ker
    # bijectivity is decided on the map alone, with the raise of inverse
    with pytest.raises(SingularMap) as again:
        require_bijective(singular)
    assert str(again.value) == str(exc.value)
    assert again.value.kernel == ker
    assert require_bijective(LinMap.flip(2, 2)) is True
    assert [aug for _, aug in eliminations[2:]] == [None, None]
    # a copy equal by value reads both decisions: no new elimination, and
    # an equal SingularMap
    copy = LinMap.from_entries((3,), (3,), singular.entries())
    assert copy == singular and copy is not singular
    for decide, first in ((inverse, exc.value), (require_bijective, again.value)):
        with pytest.raises(SingularMap) as hit:
            decide(copy)
        assert hit.value is not first
        assert (str(hit.value), hit.value.kernel) == (str(first), first.kernel)
    assert len(eliminations) == 4


def test_memo_evicts_the_least_recently_read_map(eliminations):
    """The memo holds the ``maxlen`` latest distinct maps: one more
    evicts the one read least recently, which is eliminated again when read
    next, while a map read since stays."""
    size = linalg._MEMO.maxlen
    maps = [LinMap.identity((1,)).scale(k + 1) for k in range(size + 1)]
    for m in maps[:size]:
        assert rank(m) == 1
    assert rank(LinMap.identity((1,)).scale(1)) == 1  # maps[0], read again
    assert len(eliminations) == size
    rank(maps[size])  # evicts maps[1], the least recently read
    assert len(linalg._MEMO) == size and len(eliminations) == size + 1
    rank(maps[0])
    rank(maps[size])
    assert len(eliminations) == size + 1
    rank(maps[1])
    assert eliminations[-1][0] is maps[1] and len(eliminations) == size + 2


def test_inverse_is_stored_in_column_order(eliminations):
    """A map and a copy equal by value but stored in another order have
    inverses stored in one order, sorted by column and by row, so a memo
    hit hands a later map the entry order, and through the ties of
    ``_diff_witness`` the witness, that it would compute itself."""
    m = LinMap.from_dense((3,), (3,), [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    shuffled = LinMap((3,), (3,), {j: dict(reversed(m.cols[j].items()))
                                   for j in reversed(m.cols)})
    assert shuffled == m and list(shuffled.cols) != list(m.cols)
    first = inverse(shuffled)
    assert inverse(m) is first and len(eliminations) == 1
    assert list(first.entries()) == sorted(first.entries(),
                                           key=lambda e: (e[1], e[0]))
    linalg._MEMO.clear()
    own = inverse(m)
    assert len(eliminations) == 2 and list(own.entries()) == list(first.entries())
    assert _diff_witness(own) == _diff_witness(first)


def test_memo_hands_no_result_at_another_irrational_order(eliminations):
    """Equal values at two orders: the irrational i, held at order 4 and at
    order 8, is eliminated at each, so each inverse is at its own order;
    rationals at orders 4 and 1 are eliminated once, and the kernel read
    at order 1, held at order 4, shows and writes as the one computed
    there."""
    i4 = Cyc.zeta(4)
    i8 = Cyc.promote(i4, 8)
    a4, a8 = (LinMap.from_dense((2,), (2,), [[1, i], [0, 1]]) for i in (i4, i8))
    assert a4 == a8
    inv4, inv8 = inverse(a4), inverse(a8)
    assert len(eliminations) == 2
    assert repr(inv4.entry(0, 1)) == "(-1)*z [N=4]"
    assert repr(inv8.entry(0, 1)) == "(-1)*z^2 [N=8]"

    def rational(order):
        return LinMap.from_dense((2,), (1,), [[Cyc.rational(2, order),
                                               Cyc.rational(4, order)]])
    read = kernel(rational(4)), kernel(rational(1))
    assert len(eliminations) == 3 and read[1] is read[0]
    linalg._MEMO.clear()
    fresh = kernel(rational(1))
    assert len(eliminations) == 4 and fresh == read[1]
    assert (read[1][0].get(0).order, fresh[0].get(0).order) == (4, 1)
    for v, w in zip(fresh[0].data.values(), read[1][0].data.values()):
        assert (repr(w), w.to_complex(), _scalar_to_json(w, 1)) \
            == (repr(v), v.to_complex(), _scalar_to_json(v, 1))


# -- minimal polynomial against SymPy ----------------------------------------

_X = sympy.Symbol("x")


def _sympy_minpoly(m: LinMap, order) -> sympy.Poly:
    """chi(x) / gcd of the (n-1)-minors of x - m, over Q(i)."""
    field = _field(order)
    n = m.dom_dim
    a = sympy.zeros(n, n)
    for i, j, c in m.entries():
        a[i, j] = field.to_sympy(_to_field(c, order))
    b = _X * sympy.eye(n) - a
    poly = functools.partial(sympy.Poly, gens=_X, domain=sympy.QQ_I)
    minors = functools.reduce(sympy.gcd, [poly(e) for e in b.adjugate()])
    return poly(b.det(method="berkowitz")).quo(minors).monic()


def _ours(m: LinMap, order) -> sympy.Poly:
    field = _field(order)
    coeffs = [field.to_sympy(_to_field(c, order))
              for c in minimal_polynomial(m)]
    return sympy.Poly(list(reversed(coeffs)), _X, domain=sympy.QQ_I)


@st.composite
def gaussian_matrices(draw):
    """A square map up to 4 x 4 over Q or Q(i), entries in Z[i]/q."""
    order = draw(st.sampled_from((1, 4)))
    n = draw(st.integers(1, 4))
    deg = len(Cyc.zeta(order).coeffs)
    entry = st.tuples(st.lists(st.integers(-2, 2), min_size=deg,
                               max_size=deg), st.integers(1, 2)).map(
        lambda t: Cyc(order, [Fraction(a, t[1]) for a in t[0]]))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), entry,
        max_size=n * n))
    return order, LinMap.from_entries((n,), (n,), [
        (i, j, c) for (i, j), c in cells.items()])


@settings(max_examples=40, deadline=None)
@given(gaussian_matrices())
def test_minimal_polynomial_matches_sympy(case):
    order, m = case
    assert _ours(m, order) == _sympy_minpoly(m, order)


def _gaussian(re, im=0):
    return Cyc(4, [Fraction(re), Fraction(im)])


@pytest.mark.parametrize("name, order, rows, degree", [
    # repeated eigenvalue 2, diagonalizable: (x - 2)(x - 3)
    ("repeated", 1, [[2, 0, 0], [0, 2, 0], [0, 0, 3]], 2),
    # a 2 x 2 Jordan block at 2 beside a 1 x 1 block: (x - 2)^2
    ("jordan", 1, [[2, 1, 0], [0, 2, 0], [0, 0, 2]], 2),
    ("nilpotent", 1, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0],
                      [0, 0, 0, 0]], 3),
    ("zero", 1, [[0, 0], [0, 0]], 1),
    # eigenvalues i, i and -i; the block at i is not diagonalizable
    ("gaussian-jordan", 4, [[_gaussian(0, 1), 1, 0],
                            [0, _gaussian(0, 1), 0],
                            [0, 0, _gaussian(0, -1)]], 3),
    # a rational conjugate of a Jordan block at 1 + i, beside 1 + i
    ("gaussian-conjugated", 4, [[_gaussian(1, 1), 0, 0],
                                [0, _gaussian(2, 1), 1],
                                [0, -1, _gaussian(0, 1)]], 2),
])
def test_minimal_polynomial_fixed_cases(name, order, rows, degree):
    n = len(rows)
    m = LinMap.from_dense((n,), (n,), rows)
    got = minimal_polynomial(m)
    assert len(got) == degree + 1 and got[-1] == 1
    assert _ours(m, order) == _sympy_minpoly(m, order)
    # the polynomial kills m
    value = LinMap.zero((n,), (n,))
    power = LinMap.identity((n,))
    for c in got:
        value = value + power.scale(c)
        power = m @ power
    assert value.is_zero()


def test_minimal_polynomial_refuses_a_non_square_map():
    with pytest.raises(LegMismatch):
        minimal_polynomial(LinMap.zero((2,), (3,)))
