"""Reading and writing model, table, morphism and report files.

All files are UTF-8 JSON.  A scalar is an array of rational strings
("p/q", "p" or a decimal, no exponent, at most ``MAX_SCALAR_CHARS``
characters each) listing the coefficients of 1, zeta, zeta^2, ... for the
declared cyclotomic order: the model's ``order``, and for a morphism file
the lcm of its two models' orders, whose field holds both.  Each scalar
is written promoted to that order and read back in it; arrays longer
than the residue basis fold exactly through the cyclotomic relation.  A
sparse vector is a list of [index, scalar] pairs and a sparse map a list
of [out_index, in_index, scalar] triples over row-major flattened tensor
legs.  Parsing validates every shape and index and names the offending
field; models may omit the counit and antipode, which are then recovered
from the remaining structure maps.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

from .errors import ModelError, ParseError
from .hopf import QGModel, solve_antipode, solve_counit
from .linalg import LinMap, Vec, total_dim
from .models import GroupTable
from .report import Report
from .scalars import MAX_ORDER, Cyc

if TYPE_CHECKING:
    from .subgroups import QGMorphism


# -- scalars, vectors, maps --------------------------------------------------

def _scalar_to_json(c: Cyc, order: int) -> list[str]:
    """The coefficients of c in the power basis of Q(zeta_order)."""
    try:
        c = Cyc.promote(c, order)
    except ValueError:
        raise ModelError(
            f"scalar {c!r} of Q(zeta_{c.order}) cannot be written in the "
            f"declared field Q(zeta_{order})") from None
    coeffs = [str(f) for f in c.coeffs]
    while len(coeffs) > 1 and coeffs[-1] == "0":
        coeffs.pop()
    return coeffs


# "p/q", "p" or a decimal, without exponent: "1e999999999" would make
# Fraction build a huge integer, and coefficients past the float range
# break every float conversion of the model.
_RATIONAL = re.compile(r"[+-]?(\d+(/\d+)?|\d*\.\d+)")
MAX_SCALAR_CHARS = 40


def _scalar_from_json(obj, order: int, where: str) -> Cyc:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: scalar must be a nonempty array "
                         "of rational strings")
    coeffs = []
    for s in obj:
        if not isinstance(s, str):
            raise ParseError(f"{where}: scalar coefficient {s!r} "
                             "must be a string")
        if len(s) > MAX_SCALAR_CHARS or not _RATIONAL.fullmatch(s):
            raise ParseError(f"{where}: bad rational {s[:MAX_SCALAR_CHARS]!r}; "
                             "expected p/q, p or a decimal, at most "
                             f"{MAX_SCALAR_CHARS} characters")
        try:
            coeffs.append(Fraction(s))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{where}: bad rational {s!r}") from None
    return Cyc(order, coeffs) if any(coeffs[1:]) else Cyc.rational(coeffs[0], order)


def _is_int(x) -> bool:
    """JSON integers only: bool is a subclass of int but not an integer."""
    return isinstance(x, int) and not isinstance(x, bool)


def _index(x, bound: int, what: str, where: str) -> int:
    if not _is_int(x):
        raise ParseError(f"{where}: {what} {x!r} is not an integer")
    if not 0 <= x < bound:
        raise ParseError(f"{where}: {what} {x!r} out of range 0..{bound - 1}")
    return x


def _vec_to_json(v: Vec, order: int) -> list:
    return [[i, _scalar_to_json(c, order)] for i, c in sorted(v.data.items())]


def _vec_from_json(obj, dims, order: int, where: str) -> Vec:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of [index, scalar] pairs")
    total = total_dim(dims)
    data = {}
    for pair in obj:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"{where}: entry {pair!r} is not a pair")
        i = _index(pair[0], total, "index", where)
        if i in data:
            raise ParseError(f"{where}: duplicate index {i}")
        data[i] = _scalar_from_json(pair[1], order, f"{where}[{i}]")
    return Vec(dims, data)


def _map_to_json(m: LinMap, order: int) -> list:
    return [[i, j, _scalar_to_json(c, order)]
            for i, j, c in sorted(m.entries(), key=lambda e: (e[0], e[1]))]


def _map_from_json(obj, dom, cod, order: int, where: str) -> LinMap:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of "
                         "[out_index, in_index, scalar] triples")
    nd, nc = total_dim(dom), total_dim(cod)
    entries, seen = [], set()
    for triple in obj:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise ParseError(f"{where}: entry {triple!r} is not a triple")
        i = _index(triple[0], nc, "out index", where)
        j = _index(triple[1], nd, "in index", where)
        if (i, j) in seen:
            raise ParseError(f"{where}: duplicate entry ({i}, {j})")
        seen.add((i, j))
        entries.append((i, j, _scalar_from_json(triple[2], order,
                                                f"{where}[{i},{j}]")))
    return LinMap.from_entries(dom, cod, entries)


# -- model files ---------------------------------------------------------

def _field(d: dict, key: str, kind, where: str):
    if key not in d:
        raise ParseError(f"{where}: missing field {key!r}")
    v = d[key]
    if kind is int and not _is_int(v) or not isinstance(v, kind):
        raise ParseError(f"{where}: field {key!r} must be "
                         f"{kind.__name__}, got {type(v).__name__}")
    return v


def model_to_dict(model: QGModel) -> dict:
    order = model.order
    return {"name": model.name, "order": order, "dim": model.dim,
            "basis": list(model.basis), "positive": model.positive,
            "unit": _vec_to_json(model.unit, order),
            **{key: _map_to_json(getattr(model, key), order)
               for key in ("mult", "coprod", "counit", "antipode", "invol")}}


def model_from_dict(d: dict, where: str = "model") -> QGModel:
    if not isinstance(d, dict):
        raise ParseError(f"{where}: expected a JSON object")
    name = _field(d, "name", str, where)
    order = _field(d, "order", int, where)
    dim = _field(d, "dim", int, where)
    if not 1 <= order <= MAX_ORDER:
        raise ParseError(f"{where}: field 'order' must be between 1 and "
                         f"{MAX_ORDER}, got {order}")
    if dim < 1:
        raise ParseError(f"{where}: dimension must be >= 1")
    basis = _field(d, "basis", list, where)
    if len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise ParseError(f"{where}: basis must be {dim} strings")
    positive = _field(d, "positive", bool, where)
    A, AA = (dim,), (dim, dim)
    unit = _vec_from_json(_field(d, "unit", list, where), A, order,
                          f"{where}.unit")
    mult = _map_from_json(_field(d, "mult", list, where), AA, A, order,
                          f"{where}.mult")
    coprod = _map_from_json(_field(d, "coprod", list, where), A, AA, order,
                            f"{where}.coprod")
    invol = _map_from_json(_field(d, "invol", list, where), A, A, order,
                           f"{where}.invol")
    counit = (_map_from_json(d["counit"], A, (), order, f"{where}.counit")
              if "counit" in d else None)
    antipode = (_map_from_json(d["antipode"], A, A, order,
                               f"{where}.antipode")
                if "antipode" in d else None)
    try:
        model = QGModel(name=name, order=order, dim=dim, basis=tuple(basis),
                        unit=unit, mult=mult, coprod=coprod,
                        counit=counit or LinMap(A, (), {}),
                        antipode=antipode or LinMap(A, A, {}),
                        invol=invol, positive=positive)
        if counit is None:
            model = replace(model, counit=solve_counit(model))
        if antipode is None:
            model = replace(model, antipode=solve_antipode(model))
    except ModelError as e:
        raise ParseError(f"{where}: {e}") from None
    return model


def _read_json(path: str, where: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"{where}: cannot read {path}: {e}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{where}: invalid JSON in {path} at line "
                         f"{e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: {path} must hold a JSON object, "
                         f"got {type(obj).__name__}")
    return obj


def _write_json(obj: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def parse_model(path: str) -> QGModel:
    return model_from_dict(_read_json(path, "model"), where=path)


def emit_model(model: QGModel, path: str):
    _write_json(model_to_dict(model), path)


# -- group table files -----------------------------------------------------

def table_to_dict(table: GroupTable) -> dict:
    return {"name": table.name, "elements": list(table.elements),
            "table": [list(row) for row in table.table]}


def parse_table(path: str) -> GroupTable:
    d = _read_json(path, "table")
    name = _field(d, "name", str, path)
    elements = _field(d, "elements", list, path)
    rows = _field(d, "table", list, path)
    if not all(isinstance(e, str) for e in elements):
        raise ParseError(f"{path}: elements must be strings")
    if not all(isinstance(r, list) and all(_is_int(v) for v in r)
               for r in rows):
        raise ParseError(f"{path}: field 'table' must be lists of integers")
    return GroupTable(name, tuple(elements), rows)


def emit_table(table: GroupTable, path: str):
    _write_json(table_to_dict(table), path)


# -- morphism files ----------------------------------------------------------

def morphism_to_dict(mor: QGMorphism) -> dict:
    return {"source": mor.source.name, "target": mor.target.name,
            "map": _map_to_json(mor.pi, lcm(mor.source.order,
                                            mor.target.order))}


def parse_morphism(path: str, source: QGModel, target: QGModel) -> QGMorphism:
    d = _read_json(path, "morphism")
    declared_src = _field(d, "source", str, path)
    declared_tgt = _field(d, "target", str, path)
    if declared_src != source.name:
        raise ParseError(f"{path}: morphism source {declared_src!r} does not "
                         f"match loaded model {source.name!r}")
    if declared_tgt != target.name:
        raise ParseError(f"{path}: morphism target {declared_tgt!r} does not "
                         f"match loaded model {target.name!r}")
    order = lcm(source.order, target.order)
    if order > MAX_ORDER:
        raise ParseError(f"{path}: the morphism's field Q(zeta_{order}) "
                         f"has order above {MAX_ORDER}")
    pi = _map_from_json(_field(d, "map", list, path), source.A, target.A,
                        order, f"{path}.map")
    from .subgroups import QGMorphism
    return QGMorphism(source, target, pi)


def emit_morphism(mor: QGMorphism, path: str):
    _write_json(morphism_to_dict(mor), path)


# -- reports -----------------------------------------------------------------

def write_report(report: Report, path: str):
    _write_json(report.to_dict(), path)
