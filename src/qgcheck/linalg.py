"""Sparse exact linear algebra with tensor-leg bookkeeping.

Linear maps carry an explicit list of tensor-leg dimensions on each side;
composition and tensoring check the leg signature, which is where most
coalgebra bugs would otherwise hide.  A vector is a map from the scalars:
a ``Vec`` is a ``LinMap`` with no domain legs whose one column holds its
entries, so each operation below is coded once and serves both, and every
result with no domain legs is a ``Vec``.  Entries are exact cyclotomic
scalars (``Cyc``) held column-sparse, so permutation-like structure maps
of group models stay cheap even on spaces of dimension ~10^3.  The module
is exact only and imports no numpy at load time: ``to_numpy`` imports it
when a caller, such as a float test oracle, asks for a float matrix.

Two operations know how a multi-index is flattened, and every other
module goes through them.  ``apply_on_legs`` is the one tensor-leg
kernel: it applies a map to chosen legs of every column of a map x, or
of x (x) y without forming it, by index arithmetic on the flattened
entries, so a structure map acting on some legs of a tensor never
becomes the embedded map on all of them; ``tensor`` is its case with
nothing applied.  ``LinMap.regroup`` reads a map as one tensor on its
codomain and domain legs and splits those legs, in another order, into
a new codomain and domain; ``transpose``, ``leg_permutation`` and every
reindexed family (a product read as its regular representation, a
functional on A (x) A read as a matrix) are one call of it.

``rank``, ``kernel``, ``require_bijective`` and ``inverse`` read a small
result off one exact reduced-row-echelon pass (``_Eliminator``) and keep
it, never the rows, in one memo by value, so a matrix is eliminated once;
only ``solve_linear`` bypasses it, solving every column of a map, augmented in
the same sparse rows, in one pass; ``inverse`` is its square case on the identity.
``minimal_polynomial`` reads the first dependency among powers off ``kernel``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, wraps
from math import prod as total_dim
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import LegMismatch, SingularMap
from .scalars import Cyc

if TYPE_CHECKING:
    import numpy as np

Dims = tuple[int, ...]


def _strides(dims: Sequence[int]) -> list[int]:
    out = [1] * len(dims)
    for k in range(len(dims) - 2, -1, -1):
        out[k] = out[k + 1] * dims[k + 1]
    return out


def to_multi(index: int, dims: Sequence[int]) -> tuple[int, ...]:
    return tuple(index // s % n for s, n in zip(_strides(dims), dims))


def from_multi(multi: Sequence[int], dims: Sequence[int]) -> int:
    return sum(i * s for i, s in zip(multi, _strides(dims)))


def _as_cyc(value) -> Cyc:
    if isinstance(value, Cyc):
        return value
    return Cyc.rational(value)


def _nonzero(col: dict) -> dict[int, Cyc]:
    """The nonzero entries of a column, as ``Cyc`` values."""
    return {i: c for i, v in col.items() if (c := _as_cyc(v))}


class LinMap:
    """Sparse exact linear map between leg-structured spaces.

    Stored column-major: ``cols[j][i]`` is the (i, j) entry.  Zero entries
    are never stored.
    """

    __slots__ = ("dom", "cod", "cols")

    def __init__(self, dom: Sequence[int], cod: Sequence[int],
                 cols: dict[int, dict[int, Cyc]] | None = None):
        self.dom: Dims = tuple(dom)
        self.cod: Dims = tuple(cod)
        self.cols: dict[int, dict[int, Cyc]] = {}
        if cols:
            for j, col in cols.items():
                if clean := _nonzero(col):
                    self.cols[j] = clean

    @classmethod
    def _of(cls, dom: Sequence[int], cod: Sequence[int],
            cols: dict[int, dict[int, Cyc]]) -> "LinMap":
        """Trusted constructor: stores ``cols`` as given, as a ``Vec`` when
        the domain has no legs.

        For results of the algebra below, whose entries are already
        nonzero ``Cyc`` values in nonempty columns.
        """
        out = object.__new__(cls if dom else Vec)
        out.dom = tuple(dom)
        out.cod = tuple(cod)
        out.cols = cols
        return out

    @property
    def dom_dim(self) -> int:
        return total_dim(self.dom)

    @property
    def cod_dim(self) -> int:
        return total_dim(self.cod)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(dims: Sequence[int]) -> "LinMap":
        n = total_dim(dims)
        return LinMap._of(dims, dims, {j: {j: Cyc.one()} for j in range(n)})

    @staticmethod
    def zero(dom: Sequence[int], cod: Sequence[int]) -> "LinMap":
        return LinMap._of(dom, cod, {})

    @staticmethod
    def from_entries(dom: Sequence[int], cod: Sequence[int], entries) -> "LinMap":
        """entries: iterable of (row, col, value)."""
        cols: dict[int, dict[int, Cyc]] = {}
        for i, j, v in entries:
            v = _as_cyc(v)
            if v.is_zero():
                continue
            col = cols.setdefault(j, {})
            s = col.get(i)
            col[i] = v if s is None else s + v
        return LinMap._of(dom, cod, {j: c for j, col in cols.items()
                                     if (c := _nonzero(col))})

    @staticmethod
    def from_dense(dom: Sequence[int], cod: Sequence[int], rows: Sequence[Sequence]) -> "LinMap":
        return LinMap.from_entries(dom, cod, ((i, j, v) for i, row in enumerate(rows)
                                              for j, v in enumerate(row)))

    @staticmethod
    def leg_permutation(dims: Sequence[int], perm: Sequence[int]) -> "LinMap":
        """Map sending leg perm[p] of the input to output position p."""
        n = len(dims)
        return LinMap.identity(dims).regroup((*perm, *range(n, 2 * n)), n)

    @staticmethod
    def flip(d1: int, d2: int) -> "LinMap":
        return LinMap.leg_permutation((d1, d2), (1, 0))

    @staticmethod
    def functional(dims: Sequence[int], values: Iterable) -> "LinMap":
        """Linear functional as a map onto the empty-leg (scalar) space."""
        return LinMap.from_entries(dims, (), ((0, j, v) for j, v in enumerate(values)))

    # -- structure ------------------------------------------------------

    def entries(self):
        for j, col in self.cols.items():
            for i, v in col.items():
                yield i, j, v

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def column(self, j) -> "Vec":
        if isinstance(j, (tuple, list)):
            j = from_multi(j, self.dom)
        col = self.cols.get(j)
        return LinMap._of((), self.cod, {0: col} if col else {})

    def entry(self, i, j) -> Cyc:
        if isinstance(i, (tuple, list)):
            i = from_multi(i, self.cod)
        if isinstance(j, (tuple, list)):
            j = from_multi(j, self.dom)
        return self.cols.get(j, {}).get(i, Cyc.zero())

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinMap) and self.dom == other.dom
                and self.cod == other.cod and self.cols == other.cols)

    def __hash__(self):
        raise TypeError("LinMap is unhashable")

    # -- algebra ----------------------------------------------------------

    def apply(self, v: "Vec") -> "Vec":
        if v.dims != self.dom:
            raise LegMismatch("vector legs differ from domain", v.dims, self.dom)
        return self @ v

    __call__ = apply

    def __matmul__(self, other: "LinMap") -> "LinMap":
        """Composition self o other."""
        if not isinstance(other, LinMap):
            return NotImplemented
        if other.cod != self.dom:
            raise LegMismatch("composition legs differ", self.dom, other.cod)
        cols: dict[int, dict[int, Cyc]] = {}
        for j, col in other.cols.items():
            acc: dict[int, Cyc] = {}
            summed = False  # as in apply_on_legs, only a sum may be zero
            for k, c in col.items():
                mid = self.cols.get(k)
                if not mid:
                    continue
                for i, m in mid.items():
                    p = c if m is _ONE else m * c
                    if i in acc:
                        p, summed = acc[i] + p, True
                    acc[i] = p
            if summed:
                acc = {i: v for i, v in acc.items() if v}
            if acc:
                cols[j] = acc
        return LinMap._of(other.dom, self.cod, cols)

    def tensor(self, other: "LinMap") -> "LinMap":
        """self (x) other: ``apply_on_legs`` with nothing applied."""
        return apply_on_legs(_NOTHING, (), self, other)

    def __add__(self, other: "LinMap") -> "LinMap":
        return self._merge(other, False)

    def __sub__(self, other: "LinMap") -> "LinMap":
        return self._merge(other, True)

    def _merge(self, other: "LinMap", negate: bool) -> "LinMap":
        """self + other, or self - other when ``negate``, in one pass: the
        columns and entries of self in order, then those only other has."""
        if self.dom != other.dom or self.cod != other.cod:
            raise LegMismatch("sum legs differ", (self.dom, self.cod), (other.dom, other.cod))
        cols = {j: dict(col) for j, col in self.cols.items()}
        for j, col in other.cols.items():
            mine = cols.setdefault(j, {})
            for i, v in col.items():
                v, s = -v if negate else v, mine.get(i)
                t = v if s is None else s + v
                if t.is_zero():
                    mine.pop(i, None)
                else:
                    mine[i] = t
            if not mine:
                del cols[j]
        return LinMap._of(self.dom, self.cod, cols)

    def scale(self, scalar) -> "LinMap":
        c = _as_cyc(scalar)
        if c.is_zero():
            return LinMap.zero(self.dom, self.cod)
        return LinMap._of(self.dom, self.cod,
                          {j: {i: c * v for i, v in col.items()}
                           for j, col in self.cols.items()})

    def __rmul__(self, scalar) -> "LinMap":
        return self.scale(scalar)

    def __neg__(self) -> "LinMap":
        return self.scale(-1)

    def regroup(self, order: Sequence[int], ncod: int) -> "LinMap":
        """The same entries with the legs read in another order.

        The map is one tensor with legs ``cod + dom``; the result takes
        those legs in ``order`` and makes the first ``ncod`` of them its
        codomain.  Entries keep the order of ``entries()``, so columns
        come in the order each is first reached.  As in ``apply_on_legs``,
        strides are worked out once per shape and consecutive legs that
        stay together are read as one digit.
        """
        dims, (rr, rc), (cr, cc) = _regroup_plans(self.cod, self.dom, tuple(order), ncod)
        # rows[i]: the offsets that the digits of source row i add to the
        # result's row and column index, read once per row
        rows: dict[int, tuple[int, int]] = {}
        cols: dict[int, dict[int, Cyc]] = {}
        for j, col in self.cols.items():
            r0, c0 = cr(j), cc(j)
            for i, v in col.items():
                if i not in rows:
                    rows[i] = rr(i), rc(i)
                r, c = rows[i]
                c += c0
                if c in cols:
                    cols[c][r0 + r] = v
                else:
                    cols[c] = {r0 + r: v}
        return LinMap._of(dims[ncod:], dims[:ncod], cols)

    def transpose(self) -> "LinMap":
        nc, nd = len(self.cod), len(self.dom)
        return self.regroup((*range(nc, nc + nd), *range(nc)), nd)

    def conj(self) -> "LinMap":
        return LinMap._of(self.dom, self.cod,
                          {j: {i: v.conj() for i, v in col.items()} for j, col in self.cols.items()})

    def adjoint(self) -> "LinMap":
        return self.transpose().conj()

    def relabel(self, dom: Sequence[int], cod: Sequence[int]) -> "LinMap":
        if total_dim(dom) != self.dom_dim or total_dim(cod) != self.cod_dim:
            raise LegMismatch("total dimension changed in relabel")
        return LinMap._of(dom, cod, dict(self.cols))

    def max_abs(self) -> float:
        return max((abs(v.to_complex()) for _, _, v in self.entries()), default=0.0)

    def to_numpy(self) -> np.ndarray:
        import numpy as np
        out = np.zeros((self.cod_dim, self.dom_dim), dtype=complex)
        for i, j, v in self.entries():
            out[i, j] = v.to_complex()
        return out

    def __repr__(self):
        return f"LinMap({self.dom}->{self.cod}, nnz={self.nnz})"


_NO_ENTRIES: Mapping[int, Cyc] = MappingProxyType({})


class Vec(LinMap):
    """Sparse exact vector over a tensor product of legs.

    The map from the scalars (no domain legs) whose one column, key 0,
    holds the entries; the algebra of ``LinMap`` serves it unchanged, and
    only what reads a vector by its entries lives here.
    """

    __slots__ = ()

    def __init__(self, dims: Sequence[int], data: dict[int, Cyc] | None = None):
        self.dom = ()
        self.cod = tuple(dims)
        col = _nonzero(data) if data else None
        self.cols = {0: col} if col else {}

    @staticmethod
    def zero(dims: Sequence[int]) -> "Vec":
        return Vec(dims)

    @staticmethod
    def basis(dims: Sequence[int], index) -> "Vec":
        if isinstance(index, (tuple, list)):
            index = from_multi(index, dims)
        return LinMap._of((), dims, {0: {index: Cyc.one()}})

    @staticmethod
    def from_list(dims: Sequence[int], values: Iterable) -> "Vec":
        return Vec(dims, dict(enumerate(values)))

    @property
    def dims(self) -> Dims:
        return self.cod

    @property
    def data(self) -> Mapping[int, Cyc]:
        """The entries: a read-only view of column 0."""
        cols = self.cols
        return MappingProxyType(cols[0]) if cols else _NO_ENTRIES

    @property
    def dim(self) -> int:
        return total_dim(self.cod)

    def get(self, index) -> Cyc:
        if isinstance(index, (tuple, list)):
            index = from_multi(index, self.cod)
        cols = self.cols
        if cols and (v := cols[0].get(index)) is not None:
            return v
        return Cyc.zero()

    def items(self):
        return self.data.items()

    def to_numpy(self) -> np.ndarray:
        import numpy as np
        out = np.zeros(self.dim, dtype=complex)
        for i, v in self.items():
            out[i] = v.to_complex()
        return out

    def __repr__(self):
        return f"Vec(dims={self.dims}, nnz={self.nnz})"


def _runs(plan: list[tuple[int, int, int]]):
    """The sum of digit * weight over digit readers (stride, size, weight),
    digit = index // stride % size, as a function of the index.  Readers
    of consecutive legs that stay in order are merged, so a run of legs is
    read as one digit, and a single run is read without a generator."""
    out: list[tuple[int, int, int]] = []
    for s, n, t in plan:
        if out and out[-1][0] == s * n and out[-1][2] == t * n:
            n *= out.pop()[1]
        out.append((s, n, t))
    if out[1:]:
        return lambda i: sum(i // s % n * t for s, n, t in out)
    (s, n, t), = out or [(1, 1, 0)]  # no run reads 0
    return lambda i: i // s % n * t


@lru_cache(maxsize=64)
def _regroup_plans(cod: Dims, dom: Dims, order: tuple[int, ...], ncod: int):
    """The result legs of ``LinMap.regroup`` and its digit readers."""
    legs, nc = cod + dom, len(cod)
    if sorted(order) != list(range(len(legs))):
        raise LegMismatch(f"not a permutation of {len(legs)} legs: {order}")
    dims = tuple(legs[p] for p in order)
    src = _strides(cod) + _strides(dom)
    dst = _strides(dims[:ncod]) + _strides(dims[ncod:])
    # plans[a][b] reads the digits of the source's rows (a = 0) or
    # columns (a = 1) that land in the result's rows (b = 0) or columns
    plans: list[list[list]] = [[[], []], [[], []]]
    for q, p in enumerate(order):
        plans[p >= nc][q >= ncod].append((src[p], legs[p], dst[q]))
    return dims, *([_runs(x) for x in side] for side in plans)


@lru_cache(maxsize=64)
def _plans(dims: Dims, legs: tuple[int, ...], fdom: Dims, fcod: Dims):
    """The output legs of ``apply_on_legs`` and its digit readers, worked
    out once per shape.  An entry's column of f is read off the digits of
    the legs f acts on; its output index is its own, moved by the other
    legs that land at another stride and by the offsets of f's column,
    which also clear the digits f acts on."""
    if (chosen := tuple(dims[p] for p in legs)) != fdom:
        raise LegMismatch("chosen legs do not match map domain", chosen, fdom)
    others = [p for p in range(len(dims)) if p not in legs]
    if len(fdom) == len(fcod):
        cod_at, others_at = list(legs), others
    elif list(legs) != sorted(legs):
        raise LegMismatch("arity-changing apply_on_legs needs ascending legs")
    else:
        first = sum(1 for p in others if p < legs[0])
        cod_at = list(range(first, first + len(fcod)))
        others_at = [r + (r >= first) * len(fcod) for r in range(len(others))]
    at = dict(zip(others_at, (dims[p] for p in others))) | dict(zip(cod_at, fcod))
    out_dims = tuple(at[q] for q in range(len(at)))
    out_strides, in_strides = _strides(out_dims), _strides(dims)
    chosen = [(in_strides[p], dims[p], s) for p, s in zip(legs, _strides(fdom))]
    base = _runs([(in_strides[p], dims[p], out_strides[q] - in_strides[p])
                  for p, q in zip(others, others_at) if out_strides[q] != in_strides[p]])
    cod = _runs([(s, n, out_strides[q]) for s, n, q in zip(_strides(fcod), fcod, cod_at)])
    # an entry's column of f, and the input index that f's column j clears
    return out_dims, _runs(chosen), _runs([(t, n, s) for s, n, t in chosen]), base, cod


def apply_on_legs(f: LinMap, legs: Sequence[int], x: LinMap,
                  y: LinMap | None = None) -> LinMap:
    """Apply f to the chosen legs (0-based) of every column of x, or of
    x (x) y, a vector being the one-column case.  With y the result is
    ``apply_on_legs(f, legs, x.tensor(y))`` in stored order too (column
    pairs x-major; in each, for each entry of x in turn, y's entries in
    order), but x (x) y is never formed: two entries are multiplied only
    when they reach a column of f that has entries.

    Arity-preserving maps may name legs in any order; each output leg
    replaces the input leg at the same ambient position.  Maps that change
    arity need strictly ascending legs: the named legs are removed and the
    codomain block is spliced in where the first of them sat.  Digits read
    from index i1 * nc2 + i2, with i2 < nc2 below a leg boundary, are the
    sums of those read from i1 * nc2 and from i2, so each entry of x and
    of y is read once, not once per pair.
    """
    y = _NOTHING if y is None else y
    out_dims, col_of, cleared, base, cod = _plans(x.cod + y.cod, tuple(legs), f.dom, f.cod)
    moves = {}  # a column of f -> its offsets

    def offsets(j):
        if j not in moves:
            start = -cleared(j)
            moves[j] = [(start + cod(i), v) for i, v in f.cols[j].items()]
        return moves[j]

    nc2, nd2 = y.cod_dim, y.dom_dim
    ys = [(j2, col_of(i), i + base(i), c)
          for j2, col in y.cols.items() for i, c in col.items()]
    meets = {}  # jx -> (j2, by, c2, offsets) of the entries of y, in order, that meet it
    cols = {}
    for j1, col in x.cols.items():
        accs = {j2: {} for j2 in y.cols}
        summed = False  # a product of nonzero entries is not zero; a sum may be
        for i, c1 in col.items():
            idx = i * nc2
            jx, bx = col_of(idx), idx + base(idx)
            if (meet := meets.get(jx)) is None:
                meet = meets[jx] = [(j2, by, c2, offsets(jx + jy))
                                    for j2, jy, by, c2 in ys if jx + jy in f.cols]
            for j2, by, c2, mv in meet:
                acc, c, b = accs[j2], c1 if c2 is _ONE else c1 * c2, bx + by
                for off, v in mv:
                    k = b + off
                    p = c if v is _ONE else v * c  # one * c is c
                    if k in acc:
                        p, summed = acc[k] + p, True
                    acc[k] = p
        for j2, acc in accs.items():
            if acc and (acc := {k: v for k, v in acc.items() if v} if summed else acc):
                cols[j1 * nd2 + j2] = acc
    return LinMap._of(x.dom + y.dom, out_dims, cols)


_ONE = Cyc.one()
_NOTHING = LinMap.identity(())  # the identity on no legs, applied by ``tensor``


# -- exact elimination ----------------------------------------------------


_MEMO: deque = deque(maxlen=32)  # (reader, map, result), least recently read first;
# verify d_s3 reads 20 maps and subgroup S4->A4 19; the bound keeps a long process small


def _by_value(reader):
    """Memoize ``reader(m)``, a raised SingularMap too, by m's value and the
    order of each irrational entry (``[N=4]``); a rational's shows nowhere.
    Readers of equal maps share one result, so no caller may change it."""
    def read(m: LinMap):
        for k, (r, x, out) in enumerate(_MEMO):
            if r is reader and x == m and all(x.cols[j][i].order == v.order for i, j, v
                                              in m.entries() if not v.is_rational()):
                del _MEMO[k]
                break
        else:
            try:
                out = reader(m)
            except SingularMap as e:
                out = e.with_traceback(None)  # the traceback would pin the rows
        _MEMO.append((reader, m, out))
        if isinstance(out, SingularMap):
            raise SingularMap(*out.args, kernel=out.kernel)
        return out
    return wraps(reader)(read)


class _Eliminator:
    """Reduced row echelon form of m over the exact scalar field, one pass.

    Rows are sparse dicts; a column-incidence index keeps pivot selection
    and elimination near-linear on permutation-like matrices.  Columns of
    ``aug`` (right-hand sides) live in the same rows at columns
    ``m.dom_dim + k`` and take every row operation, but only columns below
    ``m.dom_dim`` become pivots, so the pivots and the kernel do not
    depend on ``aug``.  ``pivots`` lists (row, col) in column order.
    """

    def __init__(self, m: LinMap, aug: LinMap | None = None):
        self.dom = m.dom
        n = self.ncols = m.dom_dim
        rows: dict[int, dict[int, Cyc]] = {}
        for i, j, v in m.entries():
            rows.setdefault(i, {})[j] = v
        if aug is not None:
            for i, k, v in aug.entries():
                rows.setdefault(i, {})[n + k] = v
        self.rows = rows
        self.incidence: dict[int, set[int]] = {}
        for i, r in rows.items():
            for j in r:
                self.incidence.setdefault(j, set()).add(i)
        self.pivots: list[tuple[int, int]] = []
        self.used_rows: set[int] = set()
        for col in range(n):
            cand = [i for i in self.incidence.get(col, ())
                    if i not in self.used_rows]
            if not cand:
                continue
            piv = min(cand, key=lambda i: (len(rows[i]), i))
            prow = rows[piv]
            inv = prow[col].inverse()
            if inv != 1:
                for j in list(prow):
                    prow[j] = inv * prow[j]
            for i in list(self.incidence[col]):
                if i != piv:
                    self._addmul(i, prow, -rows[i][col])
            self.pivots.append((piv, col))
            self.used_rows.add(piv)

    def _addmul(self, target: int, source: dict, factor: Cyc):
        row = self.rows[target]
        for j, v in source.items():
            s = row.get(j)
            t = factor * v if s is None else s + factor * v
            if t.is_zero():
                if s is not None:
                    del row[j]
                    self.incidence[j].discard(target)
            else:
                if s is None:
                    self.incidence.setdefault(j, set()).add(target)
                row[j] = t

    def _pivot_entries(self, keys: Iterable[int]) -> dict[int, dict[int, Cyc]]:
        """For each column k in keys, {pivot column c: entry k of its row}."""
        out: dict[int, dict[int, Cyc]] = {k: {} for k in keys}
        for r, c in self.pivots:
            for k, v in self.rows[r].items():
                if k in out:
                    out[k][c] = v
        return out

    def solution(self, aug: LinMap) -> LinMap | None:
        """The solution ``solve_linear`` returns; like aug's, its columns are nonzero."""
        n = self.ncols
        # after the full reduction a non-pivot row holds augmented entries only
        bad = {k for i, r in self.rows.items() if i not in self.used_rows for k in r}
        if bad and not aug.dom:
            return None
        cols = self._pivot_entries(n + j for j in aug.cols if n + j not in bad)
        return LinMap._of(aug.dom, self.dom, {k - n: col for k, col in cols.items()})

    def kernel(self) -> list[Vec]:
        """Exact null-space basis, one vector per free column."""
        pivots = {c for _, c in self.pivots}
        free = self._pivot_entries(j for j in range(self.ncols) if j not in pivots)
        return [Vec(self.dom, {j: Cyc.one()} | {c: -v for c, v in col.items()})
                for j, col in free.items()]


@_by_value
def rank(m: LinMap) -> int:
    return len(_Eliminator(m).pivots)


@_by_value
def kernel(m: LinMap) -> list[Vec]:
    """Exact basis of the null space."""
    return _Eliminator(m).kernel()


def solve_linear(m: LinMap, b: LinMap) -> tuple[LinMap | None, list[Vec]]:
    """Solve m x = b exactly for every column of b, in one elimination.

    Returns (x, kernel basis).  A column of b with no solution is zero in x;
    an inconsistent vector b gives None, distinct from a zero kernel.
    """
    if b.cod != m.cod:
        raise LegMismatch("right-hand side legs differ from codomain", b.cod, m.cod)
    elim = _Eliminator(m, b)
    return elim.solution(b), elim.kernel()


def _square_elimination(m: LinMap, aug: LinMap | None = None) -> _Eliminator:
    """Eliminate a square map; raise SingularMap, with the kernel, if singular."""
    n = m.dom_dim
    if m.cod_dim != n:
        raise LegMismatch("inverse of a non-square map")
    elim = _Eliminator(m, aug)
    if len(elim.pivots) < n:
        raise SingularMap(f"map of dimension {n} has rank {len(elim.pivots)}",
                          kernel=elim.kernel())
    return elim


@_by_value
def require_bijective(m: LinMap) -> bool:
    """True, or the SingularMap that ``inverse`` raises, kernel included:
    one elimination of m alone, whose pivots are those of ``inverse``."""
    _square_elimination(m)
    return True


@_by_value
def inverse(m: LinMap) -> LinMap:
    """Exact inverse, ``solve_linear`` of the identity; raises SingularMap
    (with kernel basis) if singular."""
    ident = LinMap.identity(m.cod)
    return _square_elimination(m, ident).solution(ident)


def minimal_polynomial(m: LinMap) -> list[Cyc]:
    """Coefficients c_0, ..., c_d = 1 of the minimal polynomial of m.

    The first linear dependency among I, m, m^2, ...: at the first degree
    d whose flattened power depends on the lower ones, the kernel is one
    vector, and its free column d carries the coefficient 1.  By
    Cayley-Hamilton, d <= n.
    """
    n = m.dom_dim
    if m.cod_dim != n:
        raise LegMismatch("minimal polynomial of a non-square map")
    power = LinMap.identity(m.dom)
    cols: dict[int, dict[int, Cyc]] = {}
    for d in range(n + 1):
        cols[d] = {i * n + j: v for i, j, v in power.entries()}
        ker = kernel(LinMap((d + 1,), (n * n,), cols))
        if ker:
            return [ker[0].get(c) for c in range(d + 1)]
        power = m @ power
    raise AssertionError("unreachable by Cayley-Hamilton")
