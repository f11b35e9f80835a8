"""Command line interface for the verification workbench.

Verbs:
  verify MODEL [--suite algebraic|analytic|all] [--tol T] [--seed S]
               [--report OUT]
  dual MODEL -o OUT
  build-group --table FILE --kind function|group|double -o OUT
  build-taft --n N -o OUT
  subgroup --g FILE --h FILE --map FILE [--report OUT]

MODEL is a model file path or a built-in model name.  The verify suites:
"algebraic" runs every exact-arithmetic law (structure, integrals, dual,
pentagon, biduality), "analytic" runs the GNS layer (the laws of the
regular representations, W, the invariant weight and the Kac-collapsed
modular layer, decided exactly in coordinates), and "all" runs both,
recording a skip when the model sits outside the analytic layer's
standing assumptions.  Asking for the analytic suite explicitly on such a
model is refused.

--tol T (a finite number > 0) and --seed S (an integer >= 0) are accepted,
validated and recorded in the report's meta.tol and meta.seed, so that
scripts passing them keep working.  Neither changes any result: every law
is decided exactly, with no tolerance, and on all of its inputs, with no
sampling.

Exit codes: 0 every executed check passed, 1 at least one check failed,
2 the input could not be used (bad option value, parse error, invalid
table or model construction, explicit tier refusal, unopenable file),
3 internal error: any other exception raised inside qgcheck outside every
check (for example a KeyError or LegMismatch from a builder), reported as
one "internal error: ..." line on stderr with no traceback.  The same
exception raised inside one check is recorded as that check's FAIL, with
an "internal error: ..." witness; the other checks still run, the report
is written, and the exit code is 1.
An output path (--report, -o) whose directory does not exist exits 2
before any model is read.  A model file's "order" is capped at
scalars.MAX_ORDER, which bounds the field tables but not the model size;
build-taft --n is capped at models.MAX_TAFT_ORDER, which bounds the
n^2-dimensional build.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .duality import (build_dual, check_biduality, check_convolution_compat,
                      check_dual, check_dual_modular,
                      check_pentagon_and_lemmas, check_radford)
from .errors import (INPUT_ERRORS, CheckFailure, ModelError, ParseError,
                     SingularMap, TierRefusal, internal_error_text)
from .hopf import QGModel, validate_model
from .modelio import (emit_model, parse_model, parse_morphism, parse_table,
                      write_report)
from .models import (BUILTIN_MODELS, MAX_TAFT_ORDER, build_drinfeld_double,
                     build_function_algebra, build_group_algebra, build_taft,
                     builtin)
from .modular import check_modular_structure, require_unit_scaling, solve_haar
from .report import FAIL, Checker, CheckRecord, Report, ensure
from .subgroups import (build_dual_morphism, certify_vaes,
                        check_dual_morphism, check_expectation,
                        validate_morphism)


INTERNAL_ERROR = 3  # exit code of an exception no other code covers
DEFAULT_SEED = 1729  # recorded in meta.seed; no check reads a seed


def _load_model(ref: str) -> QGModel:
    if os.path.exists(ref):
        return parse_model(ref)
    if ref in BUILTIN_MODELS:
        return builtin(ref)
    raise ParseError(f"{ref}: not a model file or built-in name; "
                     f"built-ins: {', '.join(sorted(BUILTIN_MODELS))}")


def _has_failure(records) -> bool:
    return any(r.status == FAIL for r in records)


def _stage_failure(model: QGModel, stage: str, law: str, exc) -> CheckRecord:
    return CheckRecord(f"{model.name}.suite.{stage}", law, FAIL,
                       witness=str(exc))


def _algebraic_records(model: QGModel) -> list[CheckRecord]:
    """Exact-tier suite, stopping at the first stage that fails."""
    records = list(validate_model(model))
    if _has_failure(records):
        return records
    try:
        haar = solve_haar(model)
    except (ModelError, SingularMap) as e:
        records.append(_stage_failure(
            model, "haar", "invariant functional exists and is unique", e))
        return records
    records += check_modular_structure(haar)
    try:
        dd = build_dual(model)
    except (ModelError, SingularMap) as e:
        records.append(_stage_failure(
            model, "dual", "dual model construction succeeds", e))
        return records
    records += check_dual(dd)
    records += check_dual_modular(dd)
    records += check_radford(dd)
    records += check_pentagon_and_lemmas(dd)
    records += check_convolution_compat(dd)
    records += check_biduality(dd)
    return records


def _analytic_records(model: QGModel, explicit: bool):
    """GNS-layer suite.  gns is imported here, past the exact mu test, so
    a run that is refused there or runs no analytic suite never pays for
    its import (about 7 ms; see the package's lazy loader)."""
    try:
        require_unit_scaling(model)
        from .gns import analytic_suite, build_gns
        g = build_gns(model)
    except TierRefusal as e:
        if explicit:
            raise
        ck = Checker(f"{model.name}.analytic")
        ck.skip("tier", "analytic layer runs under its standing assumptions",
                str(e))
        return ck.records
    return analytic_suite(g)


def cmd_verify(args) -> int:
    model = _load_model(args.model)
    report = Report(title=f"verify {model.name}",
                    meta={"model": model.name, "dim": model.dim,
                          "suite": args.suite, "seed": args.seed,
                          "tol": args.tol})
    if args.suite in ("algebraic", "all"):
        report.add(_algebraic_records(model))
    if args.suite in ("analytic", "all") and report.ok:
        report.add(_analytic_records(
            model, explicit=args.suite == "analytic"))
    print(report.text_table())
    if args.report:
        write_report(report, args.report)
    return 0 if report.ok else 1


def cmd_dual(args) -> int:
    model = _load_model(args.model)
    dd = build_dual(model)
    ensure(validate_model(dd.dual))
    ensure(check_modular_structure(dd.dual_haar))
    emit_model(dd.dual, args.out)
    print(f"wrote {dd.dual.name} ({dd.dual.dim}-dim) to {args.out}")
    return 0


def cmd_build_group(args) -> int:
    table = parse_table(args.table)
    builders = {"function": build_function_algebra,
                "group": build_group_algebra,
                "double": build_drinfeld_double}
    model = builders[args.kind](table)
    emit_model(model, args.out)
    print(f"wrote {model.name} ({model.dim}-dim) to {args.out}")
    return 0


def cmd_build_taft(args) -> int:
    if not 2 <= args.n <= MAX_TAFT_ORDER:
        raise ParseError(f"--n: taft order must be >= 2 and <= "
                         f"{MAX_TAFT_ORDER}, got {args.n}")
    model = build_taft(args.n)
    emit_model(model, args.out)
    print(f"wrote {model.name} ({model.dim}-dim) to {args.out}")
    return 0


def cmd_subgroup(args) -> int:
    source = _load_model(args.g)
    target = _load_model(args.h)
    mor = parse_morphism(args.map, source, target)
    report = Report(title=f"subgroup {mor.label}",
                    meta={"source": source.name, "target": target.name})
    records = validate_morphism(mor)
    report.add(records)
    if not _has_failure(records):
        dm = build_dual_morphism(mor)
        report.add(check_dual_morphism(dm))
        report.add(check_expectation(dm))
        report.add(certify_vaes(mor, dm))
    print(report.text_table())
    if args.report:
        write_report(report, args.report)
    return 0 if report.ok else 1


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float > 0."""
    try:
        value = float(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number > 0, got {value!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qgcheck",
        description="verification workbench for finite-dimensional "
                    "quantum group models")
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("verify", help="run a verification suite on a model")
    v.add_argument("model", help="model file path or built-in name")
    v.add_argument("--suite", choices=["algebraic", "analytic", "all"],
                   default="all")
    v.add_argument("--tol", type=_tolerance, default=None,
                   help="a finite number > 0, recorded in the report's "
                        "meta.tol; every law is decided exactly, so it "
                        "changes no result")
    v.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help="an integer >= 0, recorded in the report's "
                        f"meta.seed (default {DEFAULT_SEED}); no check is "
                        "sampled, so it changes no result")
    v.add_argument("--report", default=None, help="write a JSON report here")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("dual", help="emit the dual model")
    d.add_argument("model", help="model file path or built-in name")
    d.add_argument("-o", "--out", required=True)
    d.set_defaults(func=cmd_dual)

    g = sub.add_parser("build-group",
                       help="build a model from a group table file")
    g.add_argument("--table", required=True)
    g.add_argument("--kind", choices=["function", "group", "double"],
                   required=True)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=cmd_build_group)

    t = sub.add_parser("build-taft",
                       help="build the finite Taft model of a given order")
    t.add_argument("--n", type=int, required=True,
                   help=f"order n, 2 to {MAX_TAFT_ORDER}; the model has "
                        f"dimension n^2")
    t.add_argument("-o", "--out", required=True)
    t.set_defaults(func=cmd_build_taft)

    s = sub.add_parser("subgroup",
                       help="validate a morphism file and certify the "
                            "subgroup embedding")
    s.add_argument("--g", required=True, help="source model (the big one)")
    s.add_argument("--h", required=True, help="target model (the subgroup)")
    s.add_argument("--map", required=True, help="morphism file")
    s.add_argument("--report", default=None)
    s.set_defaults(func=cmd_subgroup)
    return p


def _check_output_path(path: str):
    """Refuse an output file that cannot be created, before any work."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ParseError(f"{path}: output directory {parent} does not exist")
    if os.path.isdir(path):
        raise ParseError(f"{path}: output path is a directory")


def dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in (getattr(args, "report", None), getattr(args, "out", None)):
            if path:
                _check_output_path(path)
        return args.func(args)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # a fault of qgcheck itself, not of the input
        print(internal_error_text(e), file=sys.stderr)
        return INTERNAL_ERROR


def main(argv=None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
