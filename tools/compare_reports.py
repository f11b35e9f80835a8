"""Compare the CLI results of two checkouts of this repository.

Run from anywhere:

    python3 tools/compare_reports.py PARENT_CHECKOUT CHANGE_CHECKOUT

Each command runs in a fresh interpreter with that checkout's ``src`` on
PYTHONPATH:

  - ``verify M --suite all --seed 1729 --report R`` on every built-in model,
    and ``verify M --suite analytic --report R`` on the 11 positive ones
    (all but broken, sweedler, taft3 and taft4), which exit 0: in that
    suite the GNS density records decide the bijectivity of the Galois
    maps gl and gr, which ``--suite all`` decides first in ``cancel``;
  - ``subgroup --report R`` on models/restrict_a3.json, models/restrict_z2.json
    and the two morphisms that ``perfbench/inputs.py subgroup-embed`` writes
    (C(S4) -> C(A4) and C(D6) -> C(S3)), and on the single-entry mutants of
    the first two: the middle entry of ``map`` has its first coefficient
    raised by 1, or lowered by 1 (4 files and jobs); each fails morphism
    records, so its report stops after them and the job exits 1;
  - ``dual -o OUT`` on models/c_z3.json and on the generated C(D6) and
    C(S4) files (at dim 24, C(S4) has the largest positive Gram matrix
    whose positivity a benchmark workload decides), and on the built-in
    taft3 and taft4, whose duals are written at orders 3 and 4: the only
    dual outputs with non-rational scalars, so the only ones that compare
    byte for byte how those scalars are written;
  - ``verify MUTANT --suite algebraic --report R`` and
    ``verify MUTANT --suite analytic --report R`` on single-entry mutants
    of models/{sweedler,taft3,c_s3,d_z2,cg_s3,cg_z3}.json: for each of
    ``mult``, ``coprod``, ``antipode`` and ``invol``, the middle entry of
    that map has its first coefficient raised by 1, or lowered by 1
    (48 files, 96 jobs; 135 jobs in all).

The mutants take the FAIL paths.  Their witnesses show entry positions,
kernel samples of singular maps (most lowered mutants make a Galois map
or the antipode singular) and the first of several equal residuals, which
no PASS record shows: a change that only reorders the columns of a
product passes every PASS record but changes these witnesses.  Every
algebraic mutant job stops at the structural stage (``struct``, ``hopf``,
``cancel``), and every analytic one exits 2 before any record runs: at
the mu refusal, at a model error, or at a ``build_gns`` refusal (the
``*_invol_up`` mutants of the positive models fail unitarity, and stderr
prints that defect).  So no FAIL record of a later stage (dual, pentagon,
GNS, dual morphism, Vaes certificate) is compared here; the witness order
of those records is pinned by unit tests, such as
``tests/test_duality.py::test_dual_product_witnesses_match_pair_by_pair``,
``tests/test_subgroups.py::test_streamed_bimodule_matches_composed_oracle``,
``tests/test_regroup.py::test_vaes_restates_the_dual_morphism_records``
and ``tests/test_regroup.py::test_vaes_functional_records_match_the_loop_forms``.

The generated inputs and the mutants are written once, from the parent
checkout, into a temporary directory.  The script compares exit codes,
report JSON with every ``wall_ms`` removed, and dual outputs byte for byte.
It prints each difference and exits 1 if there is any, else 0.  It writes
nothing into either checkout (bytecode caching is off in the child
processes).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

SEED = "1729"
BUILTINS = ("broken", "c_s3", "c_z2", "c_z3", "c_z4", "cg_s3", "cg_z2",
            "cg_z3", "d_s3", "d_z2", "d_z3", "sweedler", "taft3", "taft4",
            "trivial")
POSITIVE_BUILTINS = tuple(m for m in BUILTINS
                          if m not in ("broken", "sweedler", "taft3", "taft4"))
MUTANT_MODELS = ("sweedler", "taft3", "c_s3", "d_z2", "cg_s3", "cg_z3")
MUTANT_FIELDS = ("mult", "coprod", "antipode", "invol")
MUTANT_STEPS = (("up", 1), ("down", -1))
MAP_MUTANTS = (("restrict_a3", "c_z3"), ("restrict_z2", "c_z2"))


def _env(checkout: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
                PYTHONDONTWRITEBYTECODE="1")


def write_mutants(models: str, out_dir: str, names=MUTANT_MODELS,
                  fields=MUTANT_FIELDS) -> list[str]:
    """Write the single-entry mutants of each named file and field;
    return their paths."""
    paths = []
    for name in names:
        with open(os.path.join(models, f"{name}.json")) as fh:
            base = json.load(fh)
        for field in fields:
            for label, step in MUTANT_STEPS:
                d = copy.deepcopy(base)
                coeffs = d[field][len(d[field]) // 2][-1]
                coeffs[0] = str(Fraction(coeffs[0]) + step)
                path = os.path.join(out_dir, f"{name}_{field}_{label}.json")
                with open(path, "w") as fh:
                    json.dump(d, fh)
                paths.append(path)
    return paths


def jobs(models: str, generated: str, mutants: list[str],
         map_mutants: list[tuple[str, str]]
         ) -> list[tuple[str, list[str], str]]:
    """(label, argv after the verb's module, kind of output) per job.

    ``map_mutants`` pairs each mutated morphism file with its target
    model file.  The token OUT in an argv stands for the job's output file.
    """
    out = []
    for m in BUILTINS:
        out.append((f"verify {m}",
                    ["verify", m, "--suite", "all", "--seed", SEED,
                     "--report", "OUT"], "report"))
    for m in POSITIVE_BUILTINS:
        out.append((f"verify analytic {m}",
                    ["verify", m, "--suite", "analytic", "--report", "OUT"],
                    "report"))
    subgroups = [
        ("restrict_a3", os.path.join(models, "c_s3.json"),
         os.path.join(models, "c_z3.json"),
         os.path.join(models, "restrict_a3.json")),
        ("restrict_z2", os.path.join(models, "c_s3.json"),
         os.path.join(models, "c_z2.json"),
         os.path.join(models, "restrict_z2.json")),
    ] + [(stem, os.path.join(generated, f"{stem}_g.json"),
          os.path.join(generated, f"{stem}_h.json"),
          os.path.join(generated, f"{stem}_map.json"))
         for stem in ("s4_a4", "d6_s3")] + [
        (os.path.splitext(os.path.basename(path))[0],
         os.path.join(models, "c_s3.json"), h, path)
        for path, h in map_mutants]
    for label, g, h, mapfile in subgroups:
        out.append((f"subgroup {label}",
                    ["subgroup", "--g", g, "--h", h, "--map", mapfile,
                     "--report", "OUT"], "report"))
    for label, path in (("c_z3", os.path.join(models, "c_z3.json")),
                        ("d6", os.path.join(generated, "d6_s3_g.json")),
                        ("s4", os.path.join(generated, "s4_a4_g.json")),
                        ("taft3", "taft3"), ("taft4", "taft4")):
        out.append((f"dual {label}", ["dual", path, "-o", "OUT"], "dual"))
    for suite in ("algebraic", "analytic"):
        for path in mutants:
            stem = os.path.splitext(os.path.basename(path))[0]
            out.append((f"verify {suite} mutant {stem}",
                        ["verify", path, "--suite", suite, "--report",
                         "OUT"], "report"))
    return out


def run(checkout: str, argv: list[str], out_path: str):
    """Exit code and output bytes (None when no output was written)."""
    argv = [out_path if a == "OUT" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "qgcheck.cli", *argv],
                          env=_env(checkout), cwd=os.path.dirname(out_path),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    data = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            data = fh.read()
    return proc.returncode, data, proc.stderr.strip()


def _strip_wall(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_strip_wall(v) for v in obj]
    return obj


def json_diffs(a, b, where: str = "") -> list[str]:
    """Paths where two JSON values differ, with both values."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in list(a) + [k for k in b if k not in a]:
            if k not in a or k not in b:
                out.append(f"{where}.{k}: only in "
                           f"{'parent' if k in a else 'change'}")
            else:
                out += json_diffs(a[k], b[k], f"{where}.{k}")
        return out
    if isinstance(a, list) and isinstance(b, list):
        out = []
        if len(a) != len(b):
            out.append(f"{where}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            label = x.get("check_id", i) if isinstance(x, dict) else i
            out += json_diffs(x, y, f"{where}[{label}]")
        return out
    return [] if a == b else [f"{where}: {a!r} != {b!r}"]


def compare(parent: str, change: str) -> list[str]:
    diffs = []
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as tmp:
        generated = os.path.join(tmp, "inputs")
        subprocess.run([sys.executable,
                        os.path.join(parent, "perfbench", "inputs.py"),
                        "subgroup-embed", generated],
                       env=_env(parent), check=True)
        models = os.path.join(parent, "models")
        mutants = write_mutants(models, generated)
        map_mutants = [(path, os.path.join(models, f"{target}.json"))
                       for stem, target in MAP_MUTANTS
                       for path in write_mutants(models, generated, [stem],
                                                 ["map"])]
        for label, argv, kind in jobs(models, generated, mutants,
                                      map_mutants):
            results = []
            for side, checkout in (("parent", parent), ("change", change)):
                work = os.path.join(tmp, side)
                os.makedirs(work, exist_ok=True)
                name = label.replace(" ", "_") + ".json"
                results.append(run(checkout, argv, os.path.join(work, name)))
            (code_a, data_a, err_a), (code_b, data_b, err_b) = results
            found = []
            if code_a != code_b:
                found.append(f"exit code {code_a} != {code_b}")
            if (data_a is None) != (data_b is None):
                found.append("output written by "
                             f"{'parent' if data_b is None else 'change'} only")
            elif data_a is not None and kind == "report":
                found += json_diffs(_strip_wall(json.loads(data_a)),
                                    _strip_wall(json.loads(data_b)))
            elif data_a != data_b:
                found.append("dual outputs differ")
            if err_a != err_b:
                found.append(f"stderr {err_a!r} != {err_b!r}")
            status = "differs" if found else f"same (exit {code_a})"
            print(f"{label}: {status}", flush=True)
            diffs += [f"{label}: {d}" for d in found]
    return diffs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout to compare against")
    p.add_argument("change", help="checkout under test")
    args = p.parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    diffs = compare(parent, change)
    for d in diffs:
        print(d)
    print(f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
