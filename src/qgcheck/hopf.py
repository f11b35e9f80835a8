"""Finite quantum group models.

A model packages a finite-dimensional unital *-algebra together with a
coproduct, counit, antipode and involution, all stored as exact sparse
linear maps over a cyclotomic field.  The involution is antilinear, so we
store its linear part C and apply it as  a* = C(conj(a)).

Structural laws are verified by `validate_model`.  The four canonical
twisted-multiplication (Galois) maps are built once per model and on
first use by `galois_map`; a reversed product or coproduct reads them
through the leg flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelError
from .linalg import (LinMap, Vec, apply_on_legs, inverse, require_bijective,
                     solve_linear)
from .report import PASS, Checker, CheckRecord
from .scalars import Cyc


@dataclass(frozen=True)
class QGModel:
    """Finite-dimensional unital quantum group model.

    Fields:
      name      display name
      order     cyclotomic order of the scalar field Q(zeta_order)
      dim       vector space dimension
      basis     basis labels, length dim
      unit      the element 1; a Vec is a map with no domain legs, so
                this is also the unit map scalars -> A, 1 |-> 1
      mult      multiplication A (x) A -> A
      coprod    coproduct A -> A (x) A
      counit    counit A -> scalars (codomain has no legs)
      antipode  antipode A -> A
      invol     linear part C of the involution, a* = C(conj a)
      positive  whether the invariant functional is expected to be a state

    A model is immutable: ``_cached`` builds the maps that are functions
    of its fields once (``idA``, ``flipA``, the associator, the label
    index, the Galois maps), and ``linalg`` memoizes each elimination (its
    inverse antipode's too).  Its Haar data, dual and w are not cached.
    """

    name: str
    order: int
    dim: int
    basis: tuple[str, ...]
    unit: Vec
    mult: LinMap
    coprod: LinMap
    counit: LinMap
    antipode: LinMap
    invol: LinMap
    positive: bool

    def __post_init__(self):
        d = self.dim
        A, AA = (d,), (d, d)
        shapes = {
            "mult": (self.mult, AA, A),
            "coprod": (self.coprod, A, AA),
            "counit": (self.counit, A, ()),
            "antipode": (self.antipode, A, A),
            "invol": (self.invol, A, A),
        }
        for label, (m, dom, cod) in shapes.items():
            if m.dom != dom or m.cod != cod:
                raise ModelError(
                    f"{self.name}: {label} has legs {m.dom}->{m.cod}, "
                    f"expected {dom}->{cod}")
        if self.unit.dims != A:
            raise ModelError(f"{self.name}: unit has legs {self.unit.dims}")
        if len(self.basis) != d or len(set(self.basis)) != d:
            raise ModelError(f"{self.name}: basis labels must be {d} distinct strings")
        object.__setattr__(self, "_memo", {})

    def _cached(self, key, build):
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    # -- spaces and canonical maps ---------------------------------------

    @property
    def A(self) -> tuple[int, ...]:
        return (self.dim,)

    @property
    def AA(self) -> tuple[int, ...]:
        return (self.dim, self.dim)

    @property
    def idA(self) -> LinMap:
        return self._cached("idA", lambda: LinMap.identity(self.A))

    @property
    def flipA(self) -> LinMap:
        return self._cached("flipA", lambda: LinMap.flip(self.dim, self.dim))

    @property
    def antipode_inv(self) -> LinMap:
        return inverse(self.antipode)

    @property
    def associator(self) -> LinMap:
        """(ab)c - a(bc) on A (x) A (x) A, zero exactly when A is
        associative; read by the structural and the GNS records."""
        m, i = self.mult, self.idA
        return self._cached("associator", lambda: apply_on_legs(m, (0, 1), m, i)
                            - apply_on_legs(m, (0, 1), i, m))

    # -- element helpers --------------------------------------------------

    def scalar(self, x) -> Cyc:
        if isinstance(x, Cyc):
            return x
        return Cyc.rational(Fraction(x), 1)

    def basis_vec(self, i: int) -> Vec:
        return Vec.basis(self.A, i)

    def basis_index(self, label: str) -> int:
        return self._cached("label_index", lambda: {
            lab: i for i, lab in enumerate(self.basis)})[label]

    def element(self, coeffs: dict[str, object]) -> Vec:
        data = {}
        for label, c in coeffs.items():
            v = self.scalar(c)
            if not v.is_zero():
                data[self.basis_index(label)] = v
        return Vec(self.A, data)

    def show(self, v: Vec) -> str:
        if v.is_zero():
            return "0"
        parts = []
        for i in sorted(v.data):
            c = v.data[i]
            if c == Cyc.one(1):
                parts.append(self.basis[i])
            else:
                parts.append(f"({c!r})*{self.basis[i]}")
        return " + ".join(parts)

    # -- operations -------------------------------------------------------

    def mul(self, a: Vec, b: Vec) -> Vec:
        return apply_on_legs(self.mult, (0, 1), a, b)

    def lmul(self, a: Vec) -> LinMap:
        """Left multiplication by a as a matrix, mult (a (x) id)."""
        return apply_on_legs(self.mult, (0, 1), a, self.idA)

    def rmul(self, a: Vec) -> LinMap:
        """Right multiplication by a as a matrix, mult (id (x) a)."""
        return apply_on_legs(self.mult, (0, 1), self.idA, a)

    def bar(self, v: Vec) -> Vec:
        """Involution a |-> a*."""
        return self.invol(v.conj())

    def counit_of(self, v: Vec) -> Cyc:
        return self.counit(v).get(0)


# -- twisted multiplication maps -------------------------------------------


GALOIS_KINDS = ("gl", "gr", "rl", "rr")


def _build_galois(model: QGModel, kind: str) -> LinMap:
    if kind not in GALOIS_KINDS:
        raise KeyError(f"no twisted-multiplication map {kind!r}")
    mult, coprod, i = model.mult, model.coprod, model.idA
    if kind == "gl":  # a(x)b |-> coprod(a)(b(x)1)
        return apply_on_legs(mult, (0, 2), coprod, i)
    if kind == "gr":  # a(x)b |-> coprod(a)(1(x)b)
        return apply_on_legs(mult, (1, 2), coprod, i)
    if kind == "rl":  # a(x)b |-> (a(x)1)coprod(b)
        return apply_on_legs(mult, (0, 1), i, coprod)
    # rr: a(x)b |-> (1(x)a)coprod(b)
    return apply_on_legs(mult, (1, 2), apply_on_legs(model.flipA, (0, 1), i, coprod))


def galois_map(model: QGModel, kind: str) -> LinMap:
    """The canonical map gl, gr, rl or rr, built on first use and memoized.
    Each op/cop variant is one of them with the flip on one or both sides,
    e.g. rl_op(a (x) b) = coprod(b)(a (x) 1) = gl(b (x) a)."""
    return model._cached(("galois", kind), lambda: _build_galois(model, kind))


def galois(model: QGModel) -> dict[str, LinMap]:
    """The four canonical maps gl, gr, rl, rr on A (x) A."""
    return {kind: galois_map(model, kind) for kind in GALOIS_KINDS}


def check_cancellation(model: QGModel) -> list[CheckRecord]:
    """Verify that the four canonical maps gl, gr, rl, rr are bijective, a
    singular one with a kernel witness (``require_bijective``); each
    ``<kind>.det`` restates the record of its map."""
    ck = Checker(f"{model.name}.cancel")
    decided = [(kind, ck.exact(kind, f"{kind} is bijective on A(x)A",
                               lambda k=kind: require_bijective(galois_map(model, k))))
               for kind in GALOIS_KINDS]
    for kind, rec in decided:
        ck.exact(f"{kind}.det", f"det({kind}) != 0",
                 lambda rec=rec: rec.status == PASS)
    return ck.records


# -- structural validation ---------------------------------------------------


def verify_counit_antipode(model: QGModel) -> list[CheckRecord]:
    """Counit and antipode laws, including their *-compatibility."""
    ck = Checker(f"{model.name}.hopf")
    m, d_, eps, S, C = (model.mult, model.coprod, model.counit,
                        model.antipode, model.invol)
    i, flip = model.idA, model.flipA

    ck.exact("counit.left", "(eps(x)id)coprod = id",
             lambda: apply_on_legs(eps, (0,), d_) - i)
    ck.exact("counit.right", "(id(x)eps)coprod = id",
             lambda: apply_on_legs(eps, (1,), d_) - i)
    ck.exact("counit.unit", "eps(1) = 1",
             lambda: model.counit_of(model.unit) - Cyc.one(1))
    ck.exact("counit.mult", "eps(ab) = eps(a)eps(b)",
             lambda: eps @ m - eps.tensor(eps))
    ck.exact("counit.star", "eps(a*) = conj(eps(a))",
             lambda: eps @ C - eps.conj())

    ck.exact("antipode.left", "m(S(x)id)(coprod(a)(1(x)b)) = eps(a)b",
             lambda: m @ apply_on_legs(S, (0,), galois_map(model, "gr"))
             - eps.tensor(i))
    ck.exact("antipode.right", "m(id(x)S)((a(x)1)coprod(b)) = a eps(b)",
             lambda: m @ apply_on_legs(S, (1,), galois_map(model, "rl"))
             - i.tensor(eps))
    ck.exact("antipode.unit", "S(1) = 1",
             lambda: S(model.unit) - model.unit)
    ck.exact("antipode.counit", "eps(S(a)) = eps(a)",
             lambda: eps @ S - eps)
    ck.exact("antipode.anti-mult", "S(ab) = S(b)S(a)",
             lambda: S @ m - apply_on_legs(m @ flip, (0, 1), S, S))
    ck.exact("antipode.anti-comult", "coprod(S(a)) = flip (S(x)S) coprod(a)",
             lambda: d_ @ S - apply_on_legs(flip, (0, 1), S, S) @ d_)
    ck.exact("antipode.bijective", "S is bijective",
             lambda: model.antipode_inv @ S - i)
    ck.exact("antipode.star", "S(a*) = (S^-1(a))*",
             lambda: S @ C - C @ model.antipode_inv.conj())
    return ck.records


def validate_model(model: QGModel) -> list[CheckRecord]:
    """All structural laws of a model.

    The algebra, coalgebra and involution laws, then the counit/antipode
    laws and the bijectivity of the four canonical twisted-multiplication
    maps.
    """
    ck = Checker(f"{model.name}.struct")
    m, d_, C = model.mult, model.coprod, model.invol
    i, flip = model.idA, model.flipA
    u = model.unit

    ck.exact("alg.assoc", "(ab)c = a(bc)", lambda: model.associator)
    ck.exact("alg.unit-left", "1a = a", lambda: apply_on_legs(m, (0, 1), u, i) - i)
    ck.exact("alg.unit-right", "a1 = a", lambda: apply_on_legs(m, (0, 1), i, u) - i)

    ck.exact("coalg.coassoc", "(coprod(x)id)coprod = (id(x)coprod)coprod",
             lambda: apply_on_legs(d_, (0,), d_)
             - apply_on_legs(d_, (1,), d_))
    ck.exact("coalg.unit", "coprod(1) = 1(x)1",
             lambda: d_(model.unit) - model.unit.tensor(model.unit))

    def coprod_mult_diff():
        # coprod(ab) = coprod(a)coprod(b) at column (p, q), mult taken on legs
        # (0, 2) of coprod (x) coprod, never formed, then on legs (1, 2).  The
        # witness is the first worst column in p d + q order.
        diff = d_ @ m - apply_on_legs(m, (1, 2), apply_on_legs(m, (0, 2), d_, d_))
        worst = max(sorted(diff.cols), default=0,
                    key=lambda j: diff.column(j).max_abs())
        return diff.column(worst)

    ck.exact("coalg.mult-hom", "coprod(ab) = coprod(a)coprod(b)",
             coprod_mult_diff)

    ck.exact("invol.involutive", "(a*)* = a", lambda: C @ C.conj() - i)
    ck.exact("invol.anti-mult", "(ab)* = b* a*",
             lambda: C @ m.conj() - apply_on_legs(m, (0, 1), C, C) @ flip)
    ck.exact("invol.unit", "1* = 1", lambda: model.bar(model.unit) - model.unit)
    ck.exact("invol.coprod", "coprod(a*) = (*(x)*)coprod(a)",
             lambda: d_ @ C - (C.tensor(C)) @ d_.conj())

    return (ck.records + verify_counit_antipode(model)
            + check_cancellation(model))


# -- derived structure maps ---------------------------------------------------


def solve_antipode(model: QGModel) -> LinMap:
    """Recover the antipode from multiplication and coproduct alone.

    Inverting a(x)b |-> coprod(a)(1(x)b) and composing with a |-> a(x)1
    and eps(x)id yields S; raises SingularMap if the model has none.
    """
    gr = galois_map(model, "gr")
    return apply_on_legs(model.counit.tensor(model.idA) @ inverse(gr), (0, 1),
                         model.idA, model.unit)


def solve_counit(model: QGModel) -> LinMap:
    """Recover the counit as the unique functional with (eps(x)id)coprod = id."""
    # unknowns: eps_j; equations indexed by (i, k):
    #   sum_j coprod(e_i)[(j, k)] eps_j = delta_{ik}
    system = model.coprod.regroup((2, 1, 0), 2)
    rhs = model.idA.regroup((0, 1), 2)
    sol, ker = solve_linear(system, rhs)
    if sol is None:
        raise ModelError(f"{model.name}: no counit satisfies the coproduct law")
    if ker:
        raise ModelError(f"{model.name}: counit is not unique (kernel dim {len(ker)})")
    return LinMap.functional(model.A, [sol.get(j) for j in range(model.dim)])
