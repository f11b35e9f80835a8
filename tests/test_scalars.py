"""Exact cyclotomic scalar arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qgcheck.scalars import MAX_ORDER, Cyc, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_zeta_relations():
    for n in (2, 3, 4, 6):
        z = Cyc.zeta(n)
        assert z**n == 1
        prim = all((z**k) != 1 for k in range(1, n))
        assert prim
        # geometric sum of a primitive root vanishes
        total = Cyc.zero(n)
        for k in range(n):
            total = total + z**k
        assert total.is_zero()


def test_conjugation_is_inverse_root():
    for n in (3, 4, 6):
        z = Cyc.zeta(n)
        assert z.conj() == z ** (n - 1)
        assert (z * z.conj()) == 1
        a = Cyc(n, [Fraction(1, 2), Fraction(-2, 3)])
        assert a.conj().conj() == a


def test_rational_fast_paths():
    a = Cyc.rational(Fraction(3, 4))
    b = Cyc.rational(2)
    assert (a + b).rational_value() == Fraction(11, 4)
    assert (a * b).rational_value() == Fraction(3, 2)
    assert (a / b).rational_value() == Fraction(3, 8)
    assert a.conj() == a
    assert a.is_real()


def test_cross_order_promotion():
    z3 = Cyc.zeta(3)
    r = Cyc.rational(Fraction(1, 2))
    assert (z3 + r).order == 3
    assert z3 + r == r + z3
    # two non-rational values meet in Q(zeta_lcm), within the order cap
    assert (Cyc.zeta(3) + Cyc.zeta(4)).order == 12
    with pytest.raises(ValueError):
        _ = Cyc.zeta(25) + Cyc.zeta(41)  # lcm 1025 > MAX_ORDER


def test_promotion_descends_to_a_subfield():
    """A value held at an order that does not divide the target order is
    written in the target field when it lies there, and refused when
    not: zeta_6 = -zeta_3^2 and zeta_12^3 = zeta_4, but zeta_8 is not in
    Q(zeta_4)."""
    z6 = Cyc.promote(Cyc.zeta(6), 3)
    assert z6.order == 3 and z6 == Cyc.zeta(6) == -Cyc.zeta(3, 2)
    assert Cyc.promote(Cyc.zeta(12, 3), 4) == Cyc.zeta(4)
    with pytest.raises(ValueError):
        Cyc.promote(Cyc.zeta(8), 4)


def test_inverse_nontrivial():
    z = Cyc.zeta(3)
    a = 1 + 2 * z
    assert a * a.inverse() == 1
    b = Cyc(4, [Fraction(2, 3), Fraction(-1, 5)])
    assert (b / b) == 1
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(3).inverse()


def test_embedding_matches_float():
    z = Cyc.zeta(6)
    a = 2 + z - 3 * z**2
    b = z**4 / (1 + z)
    assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-12
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-12
    assert abs(a.conj().to_complex() - a.to_complex().conjugate()) < 1e-12


def test_serialization_round_trip():
    a = Cyc(3, [Fraction(1, 3), Fraction(-5, 7)])
    assert Cyc.from_strings(3, a.to_strings()) == a
    r = Cyc.rational(Fraction(-2, 9))
    assert Cyc.from_strings(1, r.to_strings()) == r


small_rats = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def cyc_elements(order):
    from qgcheck.scalars import _context

    deg = _context(order).degree
    return st.lists(small_rats, min_size=deg, max_size=deg).map(
        lambda cs: Cyc(order, cs)
    )


@settings(max_examples=60, deadline=None)
@given(cyc_elements(6), cyc_elements(6), cyc_elements(6))
def test_field_axioms_hold(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(cyc_elements(4))
def test_hash_eq_consistency(a):
    same = Cyc(4, list(a.coeffs))
    assert same == a and hash(same) == hash(a)


# -- representation contract --------------------------------------------


def test_equal_values_have_one_representation():
    a, b = Cyc(4, ["2/4"]), Cyc(4, [Fraction(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert Cyc(4, ["2/4", 0]) == Cyc(4, [Fraction(1, 2), Fraction(0, 7)])


def test_numerators_are_in_lowest_terms():
    a = Cyc(4, ["2/4", "-6/8"])
    assert (a.nums, a.den) == ((2, -3), 4)
    z = Cyc(6, ["0/5", 0])
    assert (z.nums, z.den) == ((0, 0), 1)
    b = a * Cyc(4, [2, "3/2"])
    assert b.den > 0 and gcd(b.den, *b.nums) == 1


@pytest.mark.parametrize("q", [0, 1, -3, Fraction(-3, 4), Fraction(7, 2)])
def test_rationals_agree_across_orders(q):
    a4, a1 = Cyc.rational(q, 4), Cyc.rational(q, 1)
    assert a4 == a1 == q
    assert hash(a4) == hash(a1) == hash(Fraction(q)) == hash(q)


def test_hash_separates_values_of_one_trace():
    """Values of one trace hash apart (i, -i and 3i all have trace 0), and
    equal values hash equal at any orders: held at a multiple of their
    smallest order, at an order twice an odd one, and as ints."""
    i = Cyc.zeta(4)
    assert len({hash(i), hash(-i), hash(3 * i), hash(Cyc.zeta(8))}) == 4
    assert len({hash(Cyc(12, [0, 0, 0, k])) for k in range(1, 9)}) == 8
    for a, b in ((Cyc.zeta(12, 3), i), (Cyc.zeta(8, 2) * 3, 3 * i),
                 (Cyc.zeta(6), -Cyc.zeta(3, 2)),
                 (Cyc.zeta(3) + Cyc.zeta(4) - i, Cyc.zeta(3)),
                 (Cyc.zeta(8) * Cyc.zeta(8, 7), 1)):
        assert a == b and hash(a) == hash(b)


def test_mixed_order_results_follow_promotion():
    one, z4, two4 = Cyc.one(), Cyc.zeta(4), Cyc.rational(2, 4)
    assert (one * z4).order == 4
    assert (z4 * one).order == 4
    assert (one + z4).order == 4 and (z4 - one).order == 4
    assert (one / z4).order == 4 and (z4 / Cyc.rational(2)).order == 4
    # with two rationals of different orders the right operand's order wins
    assert (one * two4).order == 4 and (two4 * one).order == 1
    assert (one + two4).order == 4 and (two4 + one).order == 1
    # an int or Fraction operand takes the Cyc's order
    assert (2 * z4).order == 4 and (z4 * Fraction(1, 2)).order == 4
    assert (Fraction(1, 2) + Cyc.one(3)).order == 3
    assert (1 - z4).order == 4
    # two non-rational operands are lifted to the lcm of their orders
    assert (Cyc.zeta(3) * Cyc.zeta(4)).order == 12
    assert (Cyc.zeta(4) * Cyc.zeta(8)).order == 8


def test_zeta8_squared_is_zeta4():
    z8, z4 = Cyc.zeta(8), Cyc.zeta(4)
    assert z8 * z8 == z4 and z4 == z8 * z8
    assert hash(z8 * z8) == hash(z4)
    assert z8 != z4 and Cyc.zeta(8, 3) != z4


def test_mixed_order_difference_is_zero():
    diff = Cyc.zeta(8) * Cyc.zeta(8) - Cyc.zeta(4)
    assert diff.is_zero() and diff.order == 8 and diff == 0
    assert (Cyc.zeta(6) + Cyc.zeta(3, 2)).is_zero()  # zeta_6 = -zeta_3^2


def test_zeta3_plus_zeta4_lands_in_order_12():
    s = Cyc.zeta(3) + Cyc.zeta(4)
    assert s.order == 12
    assert s == Cyc.zeta(12, 4) + Cyc.zeta(12, 3)
    assert abs(s.to_complex() - (Cyc.zeta(3).to_complex() + 1j)) < 1e-12
    assert s - Cyc.zeta(4) == Cyc.zeta(3)
    assert Cyc.zeta(3) * Cyc.zeta(4) == Cyc.zeta(12, 7)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 8, 12])
def test_coeffs_are_fractions_of_residue_length(order):
    deg = len(cyclotomic_polynomial(order)) - 1
    for a in (Cyc(order, [1, "1/2", -3]), Cyc.zero(order), Cyc.zeta(order)):
        assert isinstance(a.coeffs, tuple) and len(a.coeffs) == deg
        assert all(type(c) is Fraction for c in a.coeffs)
        assert Cyc.from_strings(order, a.to_strings()) == a


def test_order_is_capped():
    assert Cyc.one(MAX_ORDER).order == MAX_ORDER
    for order in (0, MAX_ORDER + 1, 10**9):
        with pytest.raises(ValueError, match="order"):
            Cyc(order, [1])


# -- differential oracle: polynomial arithmetic modulo Phi_N in SymPy -----

X = sympy.Symbol("x")
ORACLE_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)


def _phi(order):
    return sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain=sympy.QQ)


def _poly(coeffs, order):
    """The residue of sum c_j x^j modulo Phi_order."""
    terms = [sympy.Rational(c.numerator, c.denominator) for c in coeffs]
    return sympy.Poly(terms[::-1], X, domain=sympy.QQ).rem(_phi(order))


def _expected(p, order) -> tuple[Fraction, ...]:
    deg = len(cyclotomic_polynomial(order)) - 1
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return tuple(cs + [Fraction(0)] * (deg - len(cs)))


def _assert_matches(got, p, order):
    want = _expected(p, order)
    assert got.order == order
    assert got.coeffs == want
    same = Cyc(order, want)
    assert got == same and hash(got) == hash(same)


@st.composite
def oracle_operands(draw):
    """An order and two coefficient lists, some longer than the residue
    basis so that folding is exercised too."""
    order = draw(st.sampled_from(ORACLE_ORDERS))
    deg = len(cyclotomic_polynomial(order)) - 1
    coeffs = st.lists(small_rats, min_size=1, max_size=deg + 3)
    return order, draw(coeffs), draw(coeffs)


@settings(max_examples=150, deadline=None)
@given(oracle_operands())
def test_field_operations_match_sympy(operands):
    order, ca, cb = operands
    phi = _phi(order)
    a, b = Cyc(order, ca), Cyc(order, cb)
    pa, pb = _poly(ca, order), _poly(cb, order)
    _assert_matches(a, pa, order)
    _assert_matches(a + b, pa + pb, order)
    _assert_matches(a - b, pa - pb, order)
    _assert_matches(a * b, (pa * pb).rem(phi), order)
    bar = pa.compose(sympy.Poly(X ** (order - 1), X, domain=sympy.QQ))
    _assert_matches(a.conj(), bar.rem(phi), order)
    assert (a == b) == (pa - pb).is_zero
    if pb.is_zero:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
        return
    inv = pb.invert(phi)
    _assert_matches(b.inverse(), inv, order)
    _assert_matches(a / b, (pa * inv).rem(phi), order)


@settings(max_examples=60, deadline=None)
@given(oracle_operands())
def test_complex_embedding_matches_sympy(operands):
    order, ca, _ = operands
    root = sympy.exp(2 * sympy.pi * sympy.I / order)
    want = complex(sympy.N(_poly(ca, order).as_expr().subs(X, root), 30))
    assert abs(Cyc(order, ca).to_complex() - want) < 1e-12


@settings(max_examples=60, deadline=None)
@given(oracle_operands())
def test_equal_values_hash_equal(operands):
    order, ca, cb = operands
    a, b = Cyc(order, ca), Cyc(order, cb)
    # zeta^(j + N) = zeta^j, so shifting every coefficient by N folds back
    rebuilt = [(a + b) - b, Cyc.from_strings(order, a.to_strings()),
               Cyc(order, [0] * order + list(a.coeffs)), -(-a),
               a.conj().conj()]
    if b:
        rebuilt.append((a * b) / b)
    for c in rebuilt:
        assert c == a and hash(c) == hash(a)
    if a.is_rational():
        q = a.rational_value()
        assert Cyc.rational(q) == a and hash(Cyc.rational(q)) == hash(a)


# -- the integer path of rational operands ------------------------------------

PATH_ORDERS = (1, 2, 3, 4, 8)


@st.composite
def path_values(draw):
    """A value of an order in PATH_ORDERS, built by the constructor: a
    rational one half of the time, else any coefficients (rational too,
    now and then)."""
    from qgcheck.scalars import _context

    order = draw(st.sampled_from(PATH_ORDERS))
    if draw(st.booleans()):
        return Cyc(order, [draw(small_rats)])
    deg = _context(order).degree
    return Cyc(order, draw(st.lists(small_rats, min_size=deg, max_size=deg)))


def _generic(op, a, b):
    """a op b on Fraction coefficients through the constructor alone, in
    the order the promotion rules give: the other's order for a rational
    operand (of two rationals, the right one's).  None for two irrational
    values of different orders, which are lifted to the lcm instead."""
    if a.order == b.order:
        order = a.order
    elif a.is_rational() or b.is_rational():
        order = b.order if a.is_rational() else a.order
    else:
        return None
    xs, ys = (list(v.coeffs if v.order == order else v.coeffs[:1]) for v in (a, b))
    if op == "*":
        raw = [Fraction(0)] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                raw[i + j] += x * y  # Cyc folds the powers past its degree
        return Cyc(order, raw)
    if op == "-":
        ys = [-y for y in ys]
    n = max(len(xs), len(ys))
    xs, ys = xs + [0] * (n - len(xs)), ys + [0] * (n - len(ys))
    return Cyc(order, [x + y for x, y in zip(xs, ys)])


def _same_result(got, want):
    assert got == want and got.order == want.order
    assert (got.nums, got.den) == (want.nums, want.den)
    assert got.den > 0 and gcd(got.den, *got.nums) == 1
    assert hash(got) == hash(want)


@settings(max_examples=300, deadline=None)
@given(path_values(), path_values())
def test_rational_paths_match_the_generic_path(a, b):
    for op, got in (("*", a * b), ("+", a + b), ("-", a - b)):
        want = _generic(op, a, b)
        if want is not None:
            _same_result(got, want)
    _same_result(-a, Cyc(a.order, [-c for c in a.coeffs]))
    q = b.coeffs[0]  # an int or Fraction operand takes the Cyc's order
    _same_result(a * q, _generic("*", a, Cyc(a.order, [q])))
    _same_result(q * a, _generic("*", a, Cyc(a.order, [q])))
    _same_result(a + q, _generic("+", a, Cyc(a.order, [q])))
    _same_result(a - q, _generic("-", a, Cyc(a.order, [q])))


def test_a_rational_of_degree_above_one_keeps_the_order_rule():
    # the length of nums does not tell a rational: order 4 stores (3, 0)
    three4, five = Cyc.rational(3, 4), Cyc.rational(5)
    for got in (three4 * five, three4 + five, three4 - five):
        assert got.order == 1 and got.nums == (got.rational_value(),)
    assert (five * three4).order == (five + three4).order == 4
    # order 2 has degree 1 like order 1, and the right order still wins
    half2 = Cyc(2, [Fraction(1, 2)])
    assert (half2 * five).order == 1 and (five * half2).order == 2
    assert (half2 * Cyc.zeta(4)).order == 4 and (Cyc.zeta(4) * half2).order == 4


@pytest.mark.parametrize("order", PATH_ORDERS)
def test_zero_and_small_integers_are_shared_instances(order):
    one, zero = Cyc.one(order), Cyc.zero(order)
    half = Cyc.rational(Fraction(1, 2), order)
    x = Cyc.rational(Fraction(5, 7), order)
    assert half + half is one and half - half is zero and half * 2 is one
    assert Cyc.rational(3, order) * Cyc.rational(Fraction(1, 3), order) is one
    assert -one is -one and -(-one) is one and x * 0 is zero
    assert x * one is x and one * x is x
    assert Cyc.rational(1, order) is one and Cyc.rational(0, order) is zero
    two = (x * 7 + x * 7) * Cyc.rational(Fraction(1, 5), order)
    assert two is Cyc.rational(2, order)
    # the shared instances are immutable, and nothing above changed them
    with pytest.raises(AttributeError, match="immutable"):
        one.nums = (2,) + one.nums[1:]
    with pytest.raises(AttributeError, match="immutable"):
        zero.den = 2
    assert one.coeffs == (1,) + (0,) * (len(one.nums) - 1) and one.den == 1
    assert not any(zero.nums) and zero.den == 1
