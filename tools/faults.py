"""One catalogue of single faults in qgcheck's built artifacts, and a driver
that runs the public check families on each faulted artifact.

A ``Fault`` names an artifact (a dotted path of dataclass fields, such as
``duality.dual.mult`` of an AlgMultUnitary or ``morphism.pi`` of a
DualMorphism), a position (``POSITIONS``, ``COLUMNS``, or ``all`` for the
whole artifact; each change has a ``DEFAULT``) and a change: raise, lower
or plant (+1, -1, +1 on an unstored entry) or drop one entry; negate,
zero, move or double one column; double a whole artifact, or set it to
the antipode.
``Fault.apply`` rebuilds the objects on the path with
``dataclasses.replace``, reads only fields, public methods and names in
``qgcheck.__all__``, and raises unless the artifact changes.

    PYTHONPATH=src python3 tools/faults.py

builds the clean artifacts of ``MODEL_TARGETS`` (the chain of Haar data,
dual and w of each model, rooted at its AlgMultUnitary) and
``MORPHISM_TARGETS``, applies every fault, then runs the check families
that read them, from ``validate_model`` to ``certify_vaes``, and prints
one JSON list per record: target, fault, check id (without its prefix),
status, residual, witness.  A fault that cannot be applied exits 1 with
its name.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from qgcheck import (GroupTable, LinMap, QGError, build_alg_mult_unitary,
                     build_dual, build_dual_morphism,
                     builtin, certify_vaes, check_biduality,
                     check_convolution_compat, check_coproduct_implementation,
                     check_dual, check_dual_modular, check_dual_morphism,
                     check_expectation, check_invariance_and_kms,
                     check_kac_collapse, check_modular_structure,
                     check_pentagon_and_lemmas, check_radford,
                     check_regular_reps, check_w_properties, emit_model,
                     emit_morphism, parse_model, parse_morphism,
                     restriction_morphism, solve_haar, validate_model,
                     validate_morphism)

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def _image(t: LinMap) -> set[int]:
    return {i for col in t.cols.values() for i in col}


def _free(t: LinMap, j: str, root) -> list[tuple[int, int]]:
    """The first unstored entry, by column and then row; or, in column j,
    the first unstored row from row j on, cyclically."""
    if not j:
        return [next((i, j) for j in range(t.dom_dim)
                     for i in range(t.cod_dim) if t.entry(i, j).is_zero())]
    j = int(j)
    col = t.cols.get(j, {})
    return [(next(i for k in range(t.cod_dim)
                  if (i := (j + k) % t.cod_dim) not in col), j)]


def _one_sided(t: LinMap, side: str, dm) -> list[tuple[int, int]]:
    """Column (a, u) (side "left") or (u, a) of conv_G, a in the image of
    pi_hat and u not, on a row pi keeps: only the one-sided bimodule law of
    that side reads it."""
    n, image = dm.morphism.source.dim, _image(dm.pi_hat)
    a, u = min(image), min(set(range(n)) - image)
    return [(min(dm.morphism.pi.cols),
             a * n + u if side == "left" else u * n + a)]


# entry positions: (map, argument after ":", root) -> [(row, column)]
POSITIONS = {
    "middle": lambda t, arg, root: [list(t.entries())[t.nnz // 2][:2]],
    "first": lambda t, arg, root: [next(t.entries())[:2]],
    # by column, then row: entry k, or the middle one
    "sorted": lambda t, k, root: [sorted(
        t.entries(), key=lambda e: (e[1], e[0]))[int(k or t.nnz // 2)][:2]],
    # the middle entry in a model file's order, by row, then column
    "rows": lambda t, arg, root: [sorted(t.entries())[t.nnz // 2][:2]],
    "free": _free,
    # row u of every column, u the first row outside the image (or 0)
    "free-row": lambda t, arg, root: [
        (min(set(range(t.cod_dim)) - _image(t), default=0), x)
        for x in range(t.dom_dim)],
    "one-sided": _one_sided,
}
# column positions: (map, root) -> column
COLUMNS = {
    "column": lambda t, root: sorted(t.cols)[min(1, len(t.cols) - 1)],
    # the column of pi_hat at the target's convolution unit
    "unit-column": lambda t, dm: next(iter(dm.target_duality.dual.unit.data)),
}
STEPS = {"raise": lambda v: 1, "lower": lambda v: -1, "plant": lambda v: 1,
         "drop": lambda v: -v}
COLUMN_CHANGES = {
    "negate": lambda col, t: {i: -v for i, v in col.items()},
    "zero": lambda col, t: {},
    # the first entry, moved to the first row outside the image of t
    "move": lambda col, t: {min(set(range(t.cod_dim)) - _image(t)):
                            next(iter(col.values()))},
    "double": lambda col, t: {i: v + v for i, v in col.items()},
}
# changes of a whole artifact: (artifact, object holding it) -> artifact;
# double and antipode read the model of the HaarData holding it
WHOLE_CHANGES = {"double": lambda t, haar: haar.model.scalar(2) * t,
                 "antipode": lambda t, haar: haar.model.antipode,
                 "zero": lambda t, parent: LinMap.zero(t.dom, t.cod)}
DEFAULT = {"raise": "middle", "lower": "first", "drop": "middle",
           "plant": "free", "negate": "column", "zero": "column",
           "move": "column", "double": "all", "antipode": "all"}


def lookup(obj, artifact: str):
    """The artifact of obj: its dotted path of fields read in turn."""
    for field in artifact.split("."):
        obj = getattr(obj, field)
    return obj


@dataclasses.dataclass(frozen=True)
class Fault:
    """One change of one artifact; see the module docstring."""

    artifact: str
    change: str
    position: str = ""

    @property
    def name(self) -> str:
        return (f"{self.artifact}[{self.position or DEFAULT[self.change]}]"
                f".{self.change}")

    def changed(self, t, parent, root):
        """The artifact t, held by ``parent`` inside ``root``, changed."""
        kind, _, arg = (self.position or DEFAULT[self.change]).partition(":")
        if kind == "all":
            return WHOLE_CHANGES[self.change](t, parent)
        if kind in COLUMNS:
            cols = {j: dict(col) for j, col in t.cols.items()}
            a = COLUMNS[kind](t, root)
            cols[a] = COLUMN_CHANGES[self.change](cols[a], t)
            return LinMap(t.dom, t.cod, cols)
        step = STEPS[self.change]
        return t + LinMap.from_entries(t.dom, t.cod, [
            (i, j, step(t.entry(i, j)))
            for i, j in POSITIONS[kind](t, arg, root)])

    def apply(self, obj):
        """obj with the artifact changed, rebuilt along the path."""
        fields = self.artifact.split(".")
        chain = [obj]
        for field in fields[:-1]:
            chain.append(getattr(chain[-1], field))
        old = getattr(chain[-1], fields[-1])
        new = self.changed(old, chain[-1], obj)
        if new == old:
            raise ValueError(f"fault {self.name} changes nothing")
        for parent, field in zip(reversed(chain), reversed(fields)):
            new = dataclasses.replace(parent, **{field: new})
        return new


# -- lists of faults -----------------------------------------------------------

PI_HAT_MOVES = ("negate", "zero", "move")
# the parts of a DualMorphism that the bimodule and Vaes laws read, and
# the changes of one entry of each, named as ``part_fault`` reads them
PARTS = {"pi": "morphism.pi", "conv_g": "source_duality.dual.mult",
         "conv_h": "target_duality.dual.mult"}
PART_CHANGES = tuple(f"{part}-{how}" for part in PARTS
                     for how in ("raise", "drop", "plant"))
# the file mutants: the middle entry in file order raised (1) or lowered (-1)
FILE_FAULTS = {(field, step): Fault(field, "raise" if step > 0 else "lower",
                                    "rows")
               for field in ("mult", "coprod", "antipode", "invol", "pi")
               for step in (1, -1)}


def one_entry(obj, artifact: str, changes=("raise", "lower", "plant")):
    """Faults of one entry of the artifact of obj: by default the middle
    raised, the first lowered and, where the map has an unstored entry,
    the first unstored planted."""
    t = lookup(obj, artifact)
    full = t.nnz == t.dom_dim * t.cod_dim
    return [Fault(artifact, c) for c in changes if not (c == "plant" and full)]


def spread(obj, artifact: str, per_kind: int = 12) -> list[Fault]:
    """Up to per_kind stored entries spread over the columns, each raised
    and then lowered, and up to per_kind plants, one per sampled column."""
    t = lookup(obj, artifact)
    return [Fault(artifact, change, f"sorted:{k}")
            for k in range(0, t.nnz, max(1, t.nnz // per_kind))[:per_kind]
            for change in ("raise", "lower")] + [
        Fault(artifact, "plant", f"free:{j}")
        for j in range(0, t.dom_dim, max(1, t.dom_dim // per_kind))]


def every_entry(obj, artifact: str) -> list[Fault]:
    """Each stored entry, by column and then row, raised and then lowered."""
    return [Fault(artifact, change, f"sorted:{k}")
            for k in range(lookup(obj, artifact).nnz)
            for change in ("raise", "lower")]


def part_fault(change: str) -> Fault:
    """A DualMorphism fault as the bimodule tests name it: ``negate``,
    ``zero`` or ``move`` a column of pi_hat, or ``PART-HOW`` for one entry
    of a part (``conv_g-left`` plants the one-sided column)."""
    part, _, how = change.partition("-")
    if not how:
        return Fault("pi_hat", part)
    if how in ("left", "right"):
        return Fault(PARTS[part], "plant", f"one-sided:{how}")
    return Fault(PARTS[part], how)


# -- targets -----------------------------------------------------------------


def model_file(name: str):
    return parse_model(str(MODELS_DIR / f"{name}.json"))


def morphism_file(name: str, target: str):
    """models/NAME.json, from C(S3) onto models/TARGET.json."""
    return parse_morphism(str(MODELS_DIR / f"{name}.json"),
                          model_file("c_s3"), model_file(target))


def restrict_a3_file():
    return morphism_file("restrict_a3", "c_z3")


def dihedral(n: int) -> GroupTable:
    """The dihedral group of order 2n on elements r^a s^b, index a + n*b."""
    def mul(i, j):
        a, b, c, d = i % n, i // n, j % n, j // n
        return (a + (c if b == 0 else -c)) % n + n * ((b + d) % 2)
    labels = tuple(f"r{a}" + ("s" if b else "") for b in range(2)
                   for a in range(n))
    return GroupTable(f"d{n}", labels, [[mul(i, j) for j in range(2 * n)]
                                        for i in range(2 * n)])


def restrict_d6_s3():
    return restriction_morphism(dihedral(6), [0, 2, 4, 6, 8, 10])


def restrict_s4_a4():
    """C(S4) -> C(A4), the restriction onto the even permutations."""
    s4 = GroupTable.symmetric(4)

    def even(label):
        p = [int(ch) for ch in label]
        return sum(p[i] > p[j] for i in range(4)
                   for j in range(i + 1, 4)) % 2 == 0
    return restriction_morphism(
        s4, [i for i, e in enumerate(s4.elements) if even(e)])


FILE_MODELS = ("sweedler", "taft3", "c_s3", "d_z2", "cg_s3", "cg_z3")
FILE_MORPHISMS = {"restrict_a3": "c_z3", "restrict_z2": "c_z2"}


def write_mutants(out_dir: str):
    """Write the ``FILE_FAULTS`` mutants of ``FILE_MODELS`` and
    ``FILE_MORPHISMS`` into out_dir: (model paths, (morphism path, target
    model path) pairs)."""
    models, maps = [], []
    for name in FILE_MODELS:
        clean = model_file(name)
        for (field, step), fault in FILE_FAULTS.items():
            if field != "pi":
                models.append(f"{out_dir}/{name}_{field}_"
                              f"{'up' if step > 0 else 'down'}.json")
                emit_model(fault.apply(clean), models[-1])
    for name, target in FILE_MORPHISMS.items():
        clean = morphism_file(name, target)
        for step in (1, -1):
            maps.append((f"{out_dir}/{name}_map_"
                         f"{'up' if step > 0 else 'down'}.json",
                         str(MODELS_DIR / f"{target}.json")))
            emit_morphism(FILE_FAULTS["pi", step].apply(clean), maps[-1][0])
    return models, maps


# -- the driver ----------------------------------------------------------------


def model_faults(mw) -> list[Fault]:
    """Entries of the structure maps of the model and its dual, their Haar
    data, and, on a positive model (where the analytic families run), w,
    w^-1 and both Gram matrices; mw is the model's AlgMultUnitary."""
    out = [f for art in ("source.mult", "source.coprod", "dual.mult",
                         "dual.coprod")
           for f in one_entry(mw, f"duality.{art}")]
    out += [f for art in ("haar.phi", "haar.sigma", "haar.delta",
                          "dual_haar.delta")
            for f in one_entry(mw, f"duality.{art}", ("plant",))]
    out += [Fault(f"duality.{art}", "raise") for art in (
        "source.antipode", "source.invol", "source.counit", "dual.unit",
        "dual.counit", "dual.antipode", "dual.invol", "haar.model.coprod",
        "haar.phi", "haar.psi", "haar.pmat", "haar.sigma", "haar.sigma_prime",
        "haar.sigma_inv", "haar.sigma_prime_inv", "haar.delta_inv",
        "dual_haar.phi")]
    out += [Fault(f"duality.{art}", "double") for art in (
        "haar.delta", "haar.mu", "haar.nu", "dual_haar.delta", "dual_haar.mu")]
    out += [Fault("duality.haar.sigma", "antipode"),
            Fault("duality.dual_haar.pmat_inv", "drop"),
            Fault("duality.haar.pmat", "drop")]
    if mw.duality.source.positive:
        out += [Fault(w, change, position) for w in ("w", "w_inv")
                for change, position in (("raise", "sorted"),
                                         ("lower", "sorted"),
                                         ("plant", "free:0"))]
        out += [Fault("duality.dual_haar.gram", "raise", "sorted"),
                Fault("duality.haar.gram", "drop")]
    return out


def model_families(mw) -> list:
    """validate_model, the Haar, dual, pentagon, convolution and biduality
    families, and on a positive model the analytic ones, all on mw's
    chain."""
    dd = mw.duality
    out = [lambda: validate_model(dd.source),
           lambda: check_modular_structure(dd.haar)]
    out += [lambda f=f: f(dd) for f in (
        check_dual, check_dual_modular, check_radford)]
    out += [lambda: check_pentagon_and_lemmas(mw)]
    out += [lambda f=f: f(dd) for f in (
        check_convolution_compat, check_biduality)]

    def analytic():
        reps = check_regular_reps(mw)
        coprod = check_coproduct_implementation(mw)
        return (reps + check_w_properties(mw, reps[-1]) + coprod
                + check_invariance_and_kms(dd, coprod[0])
                + [r for rs in check_kac_collapse(dd).values() for r in rs])
    if dd.source.positive:
        out.append(analytic)
    return out


def morphism_families(dm) -> list:
    def subgroup():
        dual = check_dual_morphism(dm)
        return dual + check_expectation(dm) + certify_vaes(dm, dual)
    return [lambda: validate_morphism(dm.morphism), subgroup]


MORPHISM_FAULTS = [part_fault(c) for c in (
    *PI_HAT_MOVES, *PART_CHANGES, "conv_g-left", "conv_g-right")] + [
    Fault("morphism.pi", "lower"), Fault("morphism.target.invol", "raise"),
    Fault("source_duality.haar.pmat", "raise"),
    Fault("target_duality.haar.pmat", "raise"),
    Fault("pi_hat", "double", "unit-column"),
    Fault("pi_hat", "plant", "free-row")]
MODEL_TARGETS = ("sweedler", "taft3", "c_s3", "c_z4", "d_z3")
MORPHISM_TARGETS = {"restrict_a3": restrict_a3_file,
                    "s4_a4": restrict_s4_a4, "d6_s3": restrict_d6_s3}


def jobs() -> list[tuple]:
    """(target, fault name, check id prefix, record families) per fault,
    every fault applied before any family runs."""
    targets = []
    for name in MODEL_TARGETS:
        model = builtin(name)
        mw = build_alg_mult_unitary(build_dual(solve_haar(model)))
        targets.append((name, model.name, mw, model_faults(mw),
                        model_families))
    for name, make in MORPHISM_TARGETS.items():
        dm = build_dual_morphism(make())
        targets.append((name, dm.morphism.label, dm, MORPHISM_FAULTS,
                        morphism_families))
    out = []
    for target, label, clean, faults, families in targets:
        for fault in faults:
            try:
                bad = fault.apply(clean)
            except Exception as e:
                raise SystemExit(f"fault {fault.name} on {target} cannot be "
                                 f"applied: {type(e).__name__}: {e}")
            out.append((target, fault.name, label, families(bad)))
    return out


def main() -> int:
    for target, fault, label, families in jobs():
        for family in families:
            try:
                records = family()
            except QGError as e:
                print(json.dumps([target, fault, None, "raised",
                                  type(e).__name__, str(e)]))
                continue
            for r in records:
                print(json.dumps([target, fault,
                                  r.check_id.removeprefix(f"{label}."),
                                  r.status, r.residual, r.witness]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
