"""Compare the results of two checkouts of this repository, and show which
check ids the comparison sees fail.

    python3 tools/compare_reports.py PARENT_CHECKOUT CHANGE_CHECKOUT

Every job runs in a fresh interpreter with that checkout's ``src`` on
PYTHONPATH and bytecode caching off, so nothing is written into either
checkout.  First each checkout runs its own fault driver,
``tools/faults.py``, so a change of the public signatures is compared
rather than stopping the script: 285 faults of the built artifacts of
five models and three morphisms, every public check family from
``validate_model`` to ``certify_vaes`` on each, about 36 200 records.  The
two dumps are compared line by line, and a fault that only one catalogue
holds shows as "only in parent" or "only in change"; a fault that its own
checkout cannot apply stops the script with exit 1 and the fault's name.
Then 96 CLI jobs run on both: ``verify --suite all`` on the 15 built-ins
and ``--suite analytic`` on the 11 positive ones;
``subgroup`` on models/restrict_{a3,z2}.json, on the C(S4) -> C(A4) and
C(D6) -> C(S3) files of ``perfbench/inputs.py subgroup-embed`` and on 4
map-file mutants; ``dual`` on c_z3, the generated C(D6) and C(S4), taft3
and taft4; ``verify --suite algebraic`` on 48 model-file mutants, and
``--suite analytic`` on the 9 of them in ``REFUSALS``.  The file mutants
are the catalogue's ``FILE_FAULTS`` (the middle entry of a map, in file
order, raised or lowered by 1), written once by the parent checkout.
Exit codes, stderr, report JSON without ``wall_ms`` and dual outputs byte
for byte must agree.

FAIL records show what no PASS record does (entry positions, kernel
samples, the first of several equal residuals), so a change that only
reorders a product's columns changes them.  The script then prints a
coverage table of the change's results: for each check id, without its
model or morphism prefix, whether some job saw it PASS and whether some
job saw it FAIL.  Each id of a ``verify --suite all`` or ``subgroup``
report must be seen FAIL or be listed in ``EXCUSED`` with its reason, and
an excused id seen FAIL is a stale excuse.  Of those 212 ids (181 of a
positive model's suite, ``analytic.tier``, 30 of ``subgroup``), 210 are
seen FAIL and 2, both skips, are excused.  The script prints every
difference, uncovered id and stale excuse, and exits 1 if there is any,
else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "1729"
BUILTINS = ("broken", "c_s3", "c_z2", "c_z3", "c_z4", "cg_s3", "cg_z2",
            "cg_z3", "d_s3", "d_z2", "d_z3", "sweedler", "taft3", "taft4",
            "trivial")
POSITIVE_BUILTINS = tuple(m for m in BUILTINS
                          if m not in ("broken", "sweedler", "taft3", "taft4"))

# Check ids that no job sees FAIL, each with the reason.
EXCUSED = {
    "analytic.tier": "a skip by design: it records that a model is "
                     "outside the analytic layer's standing assumptions",
    "expectation.involution-caveat": "a skip by design: pi need not "
                                     "intertwine the convolution involutions",
}
# Under --suite analytic every model-file mutant exits 2 before any record
# runs; these give one job per refusal message: mu != 1, a singular modular
# element, and the c_s3 mutants' seven (coprod_down repeats coprod_up).
REFUSALS = {"taft3_mult_up", "c_s3_mult_down", "c_s3_coprod_up",
            "c_s3_antipode_up", "c_s3_antipode_down", "c_s3_mult_up",
            "c_s3_invol_up", "c_s3_invol_down", "cg_s3_mult_down"}


class GateError(Exception):
    """The comparison cannot be made: the fault driver failed."""


def _env(checkout: str, *extra: str) -> dict:
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join((os.path.join(checkout, "src"),
                                            *extra)))


def write_mutants(parent: str, out_dir: str):
    """The catalogue's file mutants, written by the parent checkout with
    its own catalogue: (model paths, (morphism path, target model path)
    pairs)."""
    code = ("import json, sys, faults; "
            "json.dump(faults.write_mutants(sys.argv[1]), sys.stdout)")
    proc = subprocess.run([sys.executable, "-c", code, out_dir],
                          env=_env(parent, os.path.join(parent, "tools")),
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout)


def fault_dump(checkout: str) -> list[list]:
    """The records of the checkout's own fault driver, one list per line."""
    proc = subprocess.run([sys.executable,
                           os.path.join(checkout, "tools", "faults.py")],
                          env=_env(checkout),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode:
        raise GateError(f"fault driver on {checkout} exited "
                        f"{proc.returncode}: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


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
    for path in mutants:
        stem = os.path.splitext(os.path.basename(path))[0]
        analytic = ("analytic",) if stem in REFUSALS else ()
        for suite in ("algebraic", *analytic):
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
    data = Path(out_path).read_bytes() if os.path.exists(out_path) else None
    return proc.returncode, data, proc.stderr.strip()


def json_diffs(a, b, where: str = "") -> list[str]:
    """Paths where two JSON values differ, with both values; ``wall_ms``
    keys are not compared."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in [k for k in {**a, **b} if k != "wall_ms"]:
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


def report_ids(report: dict) -> list[tuple[str, str]]:
    """(check id without its model or morphism prefix, status) per record
    of a report."""
    meta = report["meta"]
    label = meta.get("model") or f"{meta['source']}->{meta['target']}"
    return [(c["check_id"].removeprefix(f"{label}."), c["status"])
            for c in report["checks"]]


def fault_diffs(parent: list[list], change: list[list]) -> list[str]:
    """One line per fault job whose records differ between two dumps."""
    jobs = ({}, {})
    for side, dump in zip(jobs, (parent, change)):
        for line in dump:
            side.setdefault(f"{line[0]} {line[1]}", []).append(line)
    out = []
    for job in list(jobs[0]) + [j for j in jobs[1] if j not in jobs[0]]:
        a, b = (side.get(job) for side in jobs)
        if a is None or b is None:
            out.append(f"fault {job}: only in "
                       f"{'parent' if b is None else 'change'}")
        elif a != b:
            first = next((x, y) for x, y in zip(a + [None], b + [None])
                         if x != y)
            out.append(f"fault {job}: {first[0]} != {first[1]}")
    return out


def coverage(seen: dict[str, set[str]], universe: set[str],
             excused: dict[str, str] = EXCUSED):
    """The coverage table's rows, and the ids that break the excuse rule:
    an id of ``universe`` neither seen FAIL nor excused, an excused id seen
    FAIL, and an excuse for an id outside ``universe``."""
    rows, problems = [], []
    for cid in sorted(universe | set(seen)):
        statuses = seen.get(cid, set())
        failed = "fail" in statuses
        rows.append(f"  {cid:<48} {'PASS' if 'pass' in statuses else '-':<4}"
                    f" {'FAIL' if failed else '-':<4}"
                    f" {'excused: ' + excused[cid] if cid in excused else ''}")
        if cid in universe and not failed and cid not in excused:
            problems.append(f"{cid}: no job sees it FAIL and it has no "
                            "excuse")
        if failed and cid in excused:
            problems.append(f"{cid}: seen FAIL, so its excuse is stale")
    problems += [f"{cid}: excused, but no verify --suite all or subgroup "
                 "report has it" for cid in excused if cid not in universe]
    return rows, problems


def compare(parent: str, change: str):
    """(differences, statuses seen per check id on the change, ids of the
    change's ``verify --suite all`` and ``subgroup`` reports)."""
    dumps = [fault_dump(checkout) for checkout in (parent, change)]
    diffs = fault_diffs(*dumps)
    print(f"fault driver: {len({tuple(x[:2]) for x in dumps[1]})} faults, "
          f"{len(dumps[1])} records, {len(diffs)} differing", flush=True)
    seen: dict[str, set[str]] = {}
    for _, _, cid, status, *_ in dumps[1]:
        if status != "raised":
            seen.setdefault(cid, set()).add(status)
    universe = set()
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as tmp:
        generated = os.path.join(tmp, "inputs")
        subprocess.run([sys.executable,
                        os.path.join(parent, "perfbench", "inputs.py"),
                        "subgroup-embed", generated],
                       env=_env(parent), check=True)
        mutants, map_mutants = write_mutants(parent, generated)
        for label, argv, kind in jobs(os.path.join(parent, "models"),
                                      generated, mutants, map_mutants):
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
                found += json_diffs(json.loads(data_a), json.loads(data_b))
            elif data_a != data_b:
                found.append("dual outputs differ")
            if err_a != err_b:
                found.append(f"stderr {err_a!r} != {err_b!r}")
            status = "differs" if found else f"same (exit {code_a})"
            print(f"{label}: {status}", flush=True)
            diffs += [f"{label}: {d}" for d in found]
            if data_b is not None and kind == "report":
                ids = report_ids(json.loads(data_b))
                for cid, st in ids:
                    seen.setdefault(cid, set()).add(st)
                if argv[0] == "subgroup" or "all" in argv:
                    universe.update(cid for cid, _ in ids)
    return diffs, seen, universe


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout to compare against")
    p.add_argument("change", help="checkout under test")
    args = p.parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    try:
        diffs, seen, universe = compare(parent, change)
    except GateError as e:
        print(e)
        return 1
    rows, problems = coverage(seen, universe)
    failed = sum("fail" in seen.get(cid, ()) for cid in universe)
    print(f"coverage of the {len(universe)} ids of verify --suite all and "
          f"subgroup: {failed} seen FAIL, "
          f"{len(universe & set(EXCUSED))} excused\n"
          f"  {'check id':<48} PASS FAIL")
    print("\n".join(rows))
    for line in diffs + problems:
        print(line)
    print(f"{len(diffs)} difference(s), {len(problems)} coverage problem(s)")
    return 1 if diffs or problems else 0


if __name__ == "__main__":
    sys.exit(main())
