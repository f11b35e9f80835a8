"""Built-in model families.

Function algebras and group algebras of finite groups, the quantum double
of a finite group, and the Taft family (whose n = 2 member is the smallest
model that is neither commutative nor cocommutative).  A deliberately
broken variant is included so failure reporting stays honest.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from .errors import ModelError
from .hopf import QGModel
from .linalg import LinMap, Vec, apply_on_legs
from .scalars import Cyc


class GroupTable:
    """Finite group given by its multiplication table.

    table[i][j] is the index of the product of elements i and j; element 0
    must be the identity.  The constructor checks closure, identity,
    inverses and associativity.
    """

    def __init__(self, name: str, elements: tuple[str, ...], table):
        self.name = name
        self.elements = tuple(elements)
        n = len(self.elements)
        if n == 0:
            raise ModelError(f"{name}: elements must not be empty "
                             "(element 0 is the identity)")
        self.table = tuple(tuple(row) for row in table)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ModelError(f"{name}: table must be {n}x{n}")
        for row in self.table:
            for v in row:
                if not (0 <= v < n):
                    raise ModelError(f"{name}: table entry {v} out of range")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ModelError(f"{name}: element 0 is not an identity")
        self._inv = []
        for i in range(n):
            invs = [j for j in range(n) if self.table[i][j] == 0]
            if len(invs) != 1 or self.table[invs[0]][i] != 0:
                raise ModelError(f"{name}: element {i} has no two-sided inverse")
            self._inv.append(invs[0])
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ModelError(
                            f"{name}: associativity fails at ({i}, {j}, {k})")

    @property
    def n(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def is_abelian(self) -> bool:
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(self.n) for j in range(self.n))

    def subgroup(self, indices) -> tuple["GroupTable", list[int]]:
        """Subgroup on the given element indices, relabeled 0..k-1.

        Index 0 of the result is the identity; returns the new table and
        the list mapping new indices to old ones.
        """
        idx = sorted(set(indices))
        if 0 not in idx:
            raise ModelError(f"{self.name}: subgroup must contain the identity")
        pos = {old: new for new, old in enumerate(idx)}
        for a in idx:
            if self.inv(a) not in pos:
                raise ModelError(f"{self.name}: subgroup not closed under inverse")
            for b in idx:
                if self.mul(a, b) not in pos:
                    raise ModelError(f"{self.name}: subgroup not closed under product")
        table = [[pos[self.mul(a, b)] for b in idx] for a in idx]
        sub = GroupTable(f"{self.name}-sub{len(idx)}",
                         tuple(self.elements[a] for a in idx), table)
        return sub, idx

    @staticmethod
    def cyclic(n: int) -> "GroupTable":
        return GroupTable(f"z{n}", tuple(str(i) for i in range(n)),
                          [[(i + j) % n for j in range(n)] for i in range(n)])

    @staticmethod
    def symmetric(n: int) -> "GroupTable":
        """Permutations of {0..n-1}; identity comes first."""
        perms = list(itertools.permutations(range(n)))
        pos = {p: i for i, p in enumerate(perms)}
        # composition: (p q)(i) = p[q[i]]
        table = [[pos[tuple(p[q[i]] for i in range(n))] for q in perms]
                 for p in perms]
        labels = tuple("".join(str(x) for x in p) for p in perms)
        return GroupTable(f"s{n}", labels, table)


def _one() -> Cyc:
    return Cyc.one(1)


def build_function_algebra(group: GroupTable) -> QGModel:
    """Pointwise functions on a finite group, basis of indicator functions."""
    n = group.n
    A, AA = (n,), (n, n)
    mult = LinMap.from_entries(
        AA, A, ((g, g * n + g, _one()) for g in range(n)))
    unit = Vec(A, {g: _one() for g in range(n)})
    coprod = LinMap.from_entries(
        A, AA,
        ((a * n + b, group.mul(a, b), _one())
         for a in range(n) for b in range(n)))
    counit = LinMap.functional(A, [_one() if g == 0 else 0 for g in range(n)])
    antipode = LinMap.from_entries(A, A, ((group.inv(g), g, _one()) for g in range(n)))
    invol = LinMap.identity(A)
    return QGModel(name=f"c({group.name})", order=1, dim=n,
                   basis=tuple(f"d_{e}" for e in group.elements),
                   unit=unit, mult=mult, coprod=coprod, counit=counit,
                   antipode=antipode, invol=invol, positive=True)


def build_group_algebra(group: GroupTable) -> QGModel:
    """Group algebra with group-like basis elements."""
    n = group.n
    A, AA = (n,), (n, n)
    mult = LinMap.from_entries(
        AA, A,
        ((group.mul(g, h), g * n + h, _one()) for g in range(n) for h in range(n)))
    coprod = LinMap.from_entries(A, AA, ((g * n + g, g, _one()) for g in range(n)))
    counit = LinMap.functional(A, [_one()] * n)
    antipode = LinMap.from_entries(A, A, ((group.inv(g), g, _one()) for g in range(n)))
    invol = antipode  # u_g* = u_{g^-1}, real coefficients
    return QGModel(name=f"cg({group.name})", order=1, dim=n,
                   basis=tuple(f"u_{e}" for e in group.elements),
                   unit=Vec.basis(A, 0), mult=mult, coprod=coprod,
                   counit=counit, antipode=antipode, invol=invol,
                   positive=True)


def build_drinfeld_double(group: GroupTable) -> QGModel:
    """Quantum double of a finite group on the basis d_g u_h.

    Products cross according to u_h d_g = d_{hgh^-1} u_h; the coproduct
    splits the function leg and duplicates the group leg.
    """
    n = group.n
    dim = n * n
    A, AA = (dim,), (dim, dim)

    def ix(g, h):
        return g * n + h

    mult_entries = []
    for h in range(n):
        for gp in range(n):
            # (d_g u_h)(d_g' u_h') vanishes unless g = h g' h^-1
            g = group.mul(group.mul(h, gp), group.inv(h))
            for hp in range(n):
                mult_entries.append(
                    (ix(g, group.mul(h, hp)),
                     ix(g, h) * dim + ix(gp, hp), _one()))
    mult = LinMap.from_entries(AA, A, mult_entries)
    unit = Vec(A, {ix(g, 0): _one() for g in range(n)})
    coprod = LinMap.from_entries(
        A, AA,
        ((ix(a, h) * dim + ix(b, h), ix(group.mul(a, b), h), _one())
         for a in range(n) for b in range(n) for h in range(n)))
    counit = LinMap.functional(
        A, [_one() if g == 0 else 0 for g in range(n) for _ in range(n)])
    antipode = LinMap.from_entries(
        A, A,
        ((ix(group.mul(group.mul(group.inv(h), group.inv(g)), h), group.inv(h)),
          ix(g, h), _one())
         for g in range(n) for h in range(n)))
    invol = LinMap.from_entries(
        A, A,
        ((ix(group.mul(group.mul(group.inv(h), g), h), group.inv(h)),
          ix(g, h), _one())
         for g in range(n) for h in range(n)))
    labels = tuple(f"d_{a}|u_{b}" for a in group.elements for b in group.elements)
    return QGModel(name=f"d({group.name})", order=1, dim=dim, basis=labels,
                   unit=unit, mult=mult, coprod=coprod, counit=counit,
                   antipode=antipode, invol=invol, positive=True)


def build_taft(n: int, name: str | None = None) -> QGModel:
    """Taft algebra of dimension n^2 over Q(zeta_n).

    Generators g (order n, group-like) and x (nilpotent of order n) with
    x g = zeta g x, coproduct of x equal to x(x)1 + g(x)x.  Products and
    coproducts of basis monomials g^a x^b are computed by powering.
    """
    if n < 2:
        raise ModelError("Taft algebra needs n >= 2")
    dim = n * n
    A, AA = (dim,), (dim, dim)
    zeta = Cyc.zeta(n)

    def ix(a, b):
        return a * n + b

    mult_entries = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b + d >= n:
                        continue  # x^n = 0
                    mult_entries.append(
                        (ix((a + c) % n, b + d),
                         ix(a, b) * dim + ix(c, d), zeta ** (b * c)))
    mult = LinMap.from_entries(AA, A, mult_entries)
    unit = Vec.basis(A, 0)

    # coproduct by powering coprod(g)^a coprod(x)^b inside A(x)A, leg by leg
    g_vec, x_vec = Vec.basis(A, ix(1, 0)), Vec.basis(A, ix(0, 1))
    cg = g_vec.tensor(g_vec)
    cx = x_vec.tensor(unit) + g_vec.tensor(x_vec)
    one2 = unit.tensor(unit)
    coprod_cols = {}
    ca = one2
    for a in range(n):
        cab = ca
        for b in range(n):
            coprod_cols[ix(a, b)] = dict(cab.data)
            cab = apply_on_legs(mult, (1, 2), apply_on_legs(mult, (0, 2), cab, cx))
        ca = apply_on_legs(mult, (1, 2), apply_on_legs(mult, (0, 2), ca, cg))
    coprod = LinMap(A, AA, coprod_cols)

    counit = LinMap.functional(
        A, [_one() if b == 0 else 0 for a in range(n) for b in range(n)])

    # antipode: anti-algebra map with S(g) = g^-1, S(x) = -g^-1 x
    s_g = Vec.basis(A, ix(n - 1, 0))
    s_x = Vec(A, {ix(n - 1, 1): -(_one())})
    antipode_cols = {}
    sa = unit
    for a in range(n):
        sab = sa
        for b in range(n):
            antipode_cols[ix(a, b)] = dict(sab.data)
            sab = apply_on_legs(mult, (0, 1), s_x, sab)  # S(g^a x^(b+1)) = S(x) S(g^a x^b)
        sa = apply_on_legs(mult, (0, 1), s_g, sa)
    antipode = LinMap(A, A, antipode_cols)

    invol = LinMap.from_entries(
        A, A, ((ix(a, b), ix(a, b), zeta ** (a * b))
               for a in range(n) for b in range(n)))
    labels = tuple(
        ("1" if a == 0 and b == 0 else
         f"{'g' if a == 1 else f'g{a}' if a else ''}"
         f"{'x' if b == 1 else f'x{b}' if b else ''}")
        for a in range(n) for b in range(n))
    return QGModel(name=name or f"taft{n}", order=n, dim=dim, basis=labels,
                   unit=unit, mult=mult, coprod=coprod, counit=counit,
                   antipode=antipode, invol=invol, positive=False)


def build_sweedler() -> QGModel:
    """The four-dimensional Taft algebra."""
    return build_taft(2, name="sweedler")


def build_broken() -> QGModel:
    """Sweedler model with the antipode sign on x dropped; fails validation."""
    good = build_sweedler()
    bad_antipode = LinMap.from_entries(
        good.A, good.A,
        ((i, j, v if j != good.basis_index("x") else -v)
         for i, j, v in good.antipode.entries()))
    return replace(good, name="broken", antipode=bad_antipode)


BUILTIN_MODELS = {
    "trivial": lambda: build_function_algebra(GroupTable.cyclic(1)),
    "c_z2": lambda: build_function_algebra(GroupTable.cyclic(2)),
    "c_z3": lambda: build_function_algebra(GroupTable.cyclic(3)),
    "c_z4": lambda: build_function_algebra(GroupTable.cyclic(4)),
    "c_s3": lambda: build_function_algebra(GroupTable.symmetric(3)),
    "cg_z2": lambda: build_group_algebra(GroupTable.cyclic(2)),
    "cg_z3": lambda: build_group_algebra(GroupTable.cyclic(3)),
    "cg_s3": lambda: build_group_algebra(GroupTable.symmetric(3)),
    "d_z2": lambda: build_drinfeld_double(GroupTable.cyclic(2)),
    "d_z3": lambda: build_drinfeld_double(GroupTable.cyclic(3)),
    "d_s3": lambda: build_drinfeld_double(GroupTable.symmetric(3)),
    "sweedler": build_sweedler,
    "taft3": lambda: build_taft(3),
    "taft4": lambda: build_taft(4),
    "broken": build_broken,
}


def builtin(name: str) -> QGModel:
    if name not in BUILTIN_MODELS:
        raise ModelError(f"unknown model {name!r}; have {sorted(BUILTIN_MODELS)}")
    return BUILTIN_MODELS[name]()
