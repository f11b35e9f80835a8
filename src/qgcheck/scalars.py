"""Exact cyclotomic scalars.

The algebraic tier of the workbench computes in Q(zeta_N), the field of
rationals extended by a primitive N-th root of unity.  An element is stored
as a residue-class polynomial in zeta reduced modulo the N-th cyclotomic
polynomial: a tuple of integer numerators ``nums`` (one per power
zeta^0, ..., zeta^(deg Phi_N - 1)) over one positive denominator ``den``,
kept in lowest terms, gcd(den, *nums) = 1, so that every value has exactly
one representation and zero is (0, ..., 0)/1.  Addition, multiplication,
complex conjugation (zeta -> zeta^(N-1)) and inversion run on integers
only; the inverse of a non-rational a is the product of its Galois
conjugates sigma_k(a), k != 1 a unit mod N, divided by the rational norm
N(a).  ``Cyc.coeffs`` gives the same value as a tuple of Fractions.  N = 1
is the rational field.  Values of different orders meet in Q(zeta_L), L
the lcm of the orders (a rational value keeps the other's order), and hash
by their coordinates in the smallest Q(zeta_d) that holds them.
Orders above ``MAX_ORDER`` are refused, because the per-order tables grow
as N * phi(N).  The float tier of the workbench is plain complex
arithmetic; ``Cyc.to_complex`` is the bridge between the two.
"""

from __future__ import annotations

import cmath
from contextlib import suppress
from fractions import Fraction
from math import gcd, lcm
from typing import Union

Rational = Union[int, Fraction]

# Largest cyclotomic order accepted.  _Context(N) holds an N x phi(N)
# table of reduced powers, so an unbounded order from a model file could
# exhaust memory; _Context(720) builds in well under a second.
MAX_ORDER = 1000
# Rational results that are integers of at most this size are shared
# instances, so that ``x is one`` tests see every one of an order.
SMALL = 16


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num[:dd]):
        raise ValueError("inexact polynomial division")
    return out


def cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending, computed by dividing x^n - 1
    by the cyclotomic polynomials of the proper divisors of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        poly = _int_poly_div(poly, cyclotomic_polynomial(d))
    return poly


class _Context:
    """Per-order tables: modulus, integer power reductions, conjugation
    and the shared constants: the integers -SMALL..SMALL, zero and one
    among them."""

    __slots__ = ("order", "degree", "modulus", "powers", "conj", "zeta",
                 "pad", "ints", "zero", "one")

    def __init__(self, order: int):
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1
        d = self.degree
        # powers[k] = integer coefficient vector of zeta^k reduced mod
        # Phi_N (monic, so the reduction stays integral), for every
        # exponent a product, a conjugate or a Galois image can produce.
        top = max(order, 2 * d - 1)
        powers: list[tuple[int, ...]] = []
        cur = [1] + [0] * (d - 1)
        for _ in range(top):
            powers.append(tuple(cur))
            cur = [0] + cur  # multiply by zeta
            lead = cur[d]
            cur = [cur[j] - lead * self.modulus[j] for j in range(d)]
        self.powers = powers
        self.conj = [powers[(order - j) % order] for j in range(d)]
        self.zeta = cmath.exp(2j * cmath.pi / order)
        self.pad = (0,) * (d - 1)  # the zero coefficients of a rational
        self.ints = tuple([_make(order, (n,) + self.pad, 1)
                           for n in range(-SMALL, SMALL + 1)])
        self.zero, self.one = self.ints[SMALL], self.ints[SMALL + 1]


_CONTEXTS: dict[int, _Context] = {}


def _context(order: int) -> _Context:
    ctx = _CONTEXTS.get(order)
    if ctx is None:
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"cyclotomic order must be between 1 and "
                             f"{MAX_ORDER}, got {order}")
        ctx = _CONTEXTS[order] = _Context(order)
    return ctx


class Cyc:
    """An element of Q(zeta_N), exact.

    ``nums``/``den`` is the reduced representative: the coefficient of
    zeta^j is nums[j]/den.  ``coeffs`` lists the same coefficients as
    Fractions.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        ctx = _context(order)
        d = ctx.degree
        fs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fs))
        nums = [f.numerator * (den // f.denominator) for f in fs]
        if len(nums) > d:
            # fold powers beyond the residue basis through the reduction table
            folded = nums[:d]
            for k in range(d, len(nums)):
                if nums[k]:
                    red = ctx.powers[k if k < len(ctx.powers) else k % order]
                    folded = [f + nums[k] * r for f, r in zip(folded, red)]
            nums = folded
        else:
            nums += [0] * (d - len(nums))
        g = gcd(den, *nums)
        _set_order(self, order)
        _set_nums(self, tuple([n // g for n in nums]))
        _set_den(self, den // g)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyc is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(value: Rational, order: int = 1) -> "Cyc":
        q = value if isinstance(value, Fraction) else Fraction(value)
        return _context(order).one._scaled(q.numerator, q.denominator)

    @staticmethod
    def zero(order: int = 1) -> "Cyc":
        return _context(order).zero

    @staticmethod
    def one(order: int = 1) -> "Cyc":
        return _context(order).one

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyc":
        ctx = _context(order)
        return _make(order, ctx.powers[power % order], 1)

    @staticmethod
    def promote(value, order: int) -> "Cyc":
        """Coerce an int, Fraction or Cyc into Q(zeta_order); a Cyc of an
        order dividing ``order`` is lifted by zeta_n = zeta_order^(order/n).
        Any other Cyc is lifted to Q(zeta_L), L = lcm of the two orders,
        and its coordinates in the power basis of Q(zeta_order) are solved
        by ``solve_linear``; ValueError when the value lies outside it."""
        if isinstance(value, Cyc):
            if value.order == order:
                return value
            if value.is_rational():
                return _context(order).one._scaled(value.nums[0], value.den)
            if order % value.order == 0:  # zeta_n = zeta_order^step
                step = order // value.order
                coeffs = [0] * (step * len(value.nums))
                coeffs[::step] = value.coeffs
                return Cyc(order, coeffs)
            from .linalg import LinMap, Vec, solve_linear  # imports scalars
            big = lcm(value.order, order)
            lifted, step = Cyc.promote(value, big), big // order
            n, powers = _context(order).degree, _context(big).powers
            basis = LinMap((n,), (len(lifted.nums),), {
                j: dict(enumerate(powers[j * step])) for j in range(n)})
            x, _ = solve_linear(basis, Vec.from_list(basis.cod, lifted.coeffs))
            if x is None:
                raise ValueError(f"cannot coerce Q(zeta_{value.order}) "
                                 f"element into Q(zeta_{order})")
            return Cyc(order, [x.get(j).rational_value() for j in range(n)])
        return Cyc.rational(value, order)

    # -- coercion helpers ---------------------------------------------

    def _scaled(self, p: int, q: int) -> "Cyc":
        """self * p/q for integers p and q > 0, in self's order."""
        if p == q:
            return self
        nums = self.nums
        if not any(nums[1:]):
            return _ratio(self.order, nums[0] * p, self.den * q)
        if not p:
            return _CONTEXTS[self.order].zero
        return _cyc(self.order, [n * p for n in nums], self.den * q)

    def _result_order(self, other: "Cyc") -> int:
        """The order of a result of self and other, of different orders:
        a rational operand is promoted to the other's order (of two
        rationals, the left one to the right one's); two non-rational
        operands are both lifted to the lcm of their orders."""
        if self.is_rational():
            return other.order
        if other.is_rational():
            return self.order
        return lcm(self.order, other.order)

    def _pair(self, other) -> tuple["Cyc", "Cyc"]:
        if isinstance(other, Cyc):
            if self.order == other.order:
                return self, other
            order = self._result_order(other)
            return Cyc.promote(self, order), Cyc.promote(other, order)
        if isinstance(other, (int, Fraction)):
            return self, Cyc.rational(other, self.order)
        return NotImplemented, NotImplemented  # type: ignore[return-value]

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def is_real(self) -> bool:
        return self == self.conj()

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of zeta^0, zeta^1, ... as Fractions."""
        return tuple([Fraction(n, self.den) for n in self.nums])

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        xs, ys, da, db = a.nums, b.nums, a.den, b.den
        if not any(xs[1:]) and not any(ys[1:]):  # two rationals
            if da == db:
                return _ratio(a.order, xs[0] + ys[0], da)
            return _ratio(a.order, xs[0] * db + ys[0] * da, da * db)
        if da == db:
            return _cyc(a.order, [x + y for x, y in zip(xs, ys)], da)
        return _cyc(a.order, [x * db + y * da for x, y in zip(xs, ys)], da * db)

    __radd__ = __add__

    def __neg__(self):
        nums = self.nums
        if not any(nums[1:]):
            return _ratio(self.order, -nums[0], self.den)
        return _make(self.order, tuple([-x for x in nums]), self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            if isinstance(other, int):
                return self._scaled(other, 1)
            if isinstance(other, Fraction):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        xs, ys = self.nums, other.nums
        # a rational factor scales the other one (of two rationals of
        # different orders, the right one); two non-rational factors of
        # different orders are lifted to the lcm of their orders
        if not any(xs[1:]):
            p, q = xs[0], self.den
            if p == q:
                return other  # 1 * x
            if any(ys[1:]):
                return other._scaled(p, q)
            r, t = ys[0], other.den
            if r == t and self.order == other.order:
                return self  # x * 1
            return _ratio(other.order, p * r, q * t)
        if not any(ys[1:]):
            return self._scaled(ys[0], other.den)
        if self.order != other.order:
            a, b = self._pair(other)
            return a * b
        ctx = _CONTEXTS[self.order]
        d = ctx.degree
        raw = [0] * (2 * d - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys, i):
                    if y:
                        raw[j] += x * y
        out = raw[:d]
        powers = ctx.powers
        for k in range(d, 2 * d - 1):
            c = raw[k]
            if c:
                out = [o + c * r for o, r in zip(out, powers[k])]
        return _cyc(self.order, out, self.den * other.den)

    __rmul__ = __mul__

    def _galois(self, k: int) -> "Cyc":
        """The Galois image sigma_k(self), zeta -> zeta^k, k a unit mod N.

        sigma_k permutes Z[zeta], so the result needs no reduction."""
        ctx = _CONTEXTS[self.order]
        n = self.order
        out = [0] * ctx.degree
        for j, c in enumerate(self.nums):
            if c:
                out = [o + c * r for o, r in zip(out, ctx.powers[j * k % n])]
        return _make(n, tuple(out), self.den)

    def inverse(self) -> "Cyc":
        nums, den = self.nums, self.den
        if not any(nums):
            raise ZeroDivisionError("division by zero scalar")
        one = _CONTEXTS[self.order].one
        if not any(nums[1:]):
            p = nums[0]
            return one._scaled(den, p) if p > 0 else one._scaled(-den, -p)
        # a = A/den with A integral; A * prod_{k != 1} sigma_k(A) = N(A) is
        # an integer, > 0 because Q(zeta_N), N > 2, has no real embedding;
        # so a^-1 = den * prod_{k != 1} sigma_k(A) / N(A).
        n = self.order
        a = _make(n, nums, 1)
        cofactor = one
        for k in range(2, n):
            if gcd(k, n) == 1:
                cofactor = cofactor * a._galois(k)
        norm = a * cofactor
        if any(norm.nums[1:]) or norm.den != 1 or norm.nums[0] <= 0:
            raise ArithmeticError(f"norm of {self!r} is not a positive integer")
        return cofactor._scaled(den, norm.nums[0])

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyc.promote(other, self.order) / self

    def __pow__(self, n: int) -> "Cyc":
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyc.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "Cyc":
        """Complex conjugation, zeta -> zeta^(N-1); exact.

        Conjugation permutes Z[zeta], so the result needs no reduction."""
        ctx = _CONTEXTS[self.order]
        if ctx.degree == 1:
            return self
        out = [0] * ctx.degree
        for c, img in zip(self.nums, ctx.conj):
            if c:
                out = [o + c * r for o, r in zip(out, img)]
        return _make(self.order, tuple(out), self.den)

    # -- comparisons and hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyc):
            a, b = (self, other) if self.order == other.order \
                else self._pair(other)
            return a.nums == b.nums and a.den == b.den
        if isinstance(other, int):
            return (self.nums[0] == other and self.den == 1
                    and self.is_rational())
        if isinstance(other, Fraction):
            return (self.nums[0] == other.numerator
                    and self.den == other.denominator and self.is_rational())
        return NotImplemented

    def __hash__(self):
        # coordinates in the smallest Q(zeta_d) holding it, shared by equal values
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        for d in _divisors(self.order)[1:]:  # the last, self.order, holds it
            with suppress(ValueError):
                low = Cyc.promote(self, d)
                return hash((d, low.nums, low.den))

    # -- embeddings ------------------------------------------------------

    def to_complex(self) -> complex:
        ctx = _context(self.order)
        z = 0j
        for j, c in enumerate(self.nums):
            if c:
                # int / int rounds the exact quotient once, as float(Fraction)
                z += (c / self.den) * ctx.zeta**j
        return z

    def __repr__(self):
        if self.is_rational():
            return str(self.rational_value())
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                zp = "z" if j == 1 else f"z^{j}"
                terms.append(zp if c == 1 else f"({c})*{zp}")
        return " + ".join(terms) + f" [N={self.order}]"

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_strings(order: int, parts: list[str]) -> "Cyc":
        return Cyc(order, [Fraction(p) for p in parts])


_set_order = Cyc.order.__set__
_set_nums = Cyc.nums.__set__
_set_den = Cyc.den.__set__


def _make(order: int, nums: tuple[int, ...], den: int) -> Cyc:
    """A Cyc from numerators and a denominator already in lowest terms."""
    c = object.__new__(Cyc)
    _set_order(c, order)
    _set_nums(c, nums)
    _set_den(c, den)
    return c


def _ratio(order: int, n: int, d: int) -> Cyc:
    """The rational n/d, d > 0, in Q(zeta_order), in lowest terms: a
    shared instance when it is an integer of at most ``SMALL``."""
    if d != 1 and (g := gcd(n, d)) != 1:
        n, d = n // g, d // g
    ctx = _CONTEXTS[order]
    if d == 1 and -SMALL <= n <= SMALL:
        return ctx.ints[n + SMALL]
    return _make(order, (n,) + ctx.pad, d)


def _cyc(order: int, nums: list[int], den: int) -> Cyc:
    """A Cyc from integer numerators over a positive denominator."""
    g = gcd(den, *nums)
    if g == 1:
        return _make(order, tuple(nums), den)
    return _make(order, tuple([n // g for n in nums]), den // g)
