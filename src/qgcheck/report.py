"""Check records and report assembly.

Every verification law produces one CheckRecord.  Records carry a stable
check id, the law being verified in plain notation, pass/fail/skip status,
the worst residual observed, a tolerance (None: every law is decided in
exact arithmetic), a witness string on failure, and wall time.  Reports
serialize deterministically: two runs with the same seed differ only in
wall times.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable

from .errors import (INPUT_ERRORS, CheckFailure, QGError, SingularMap,
                     internal_error_text)
from .linalg import LinMap, Vec
from .scalars import Cyc

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass
class CheckRecord:
    check_id: str
    law: str
    status: str
    residual: float | None = None
    tolerance: float | None = None
    witness: str | None = None
    wall_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "law": self.law,
            "status": self.status,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "witness": self.witness,
            "wall_ms": round(self.wall_ms, 3),
        }


def _diff_witness(diff) -> tuple[float, str | None]:
    """Residual and worst-entry witness of an exact difference object."""
    if isinstance(diff, bool):
        return (0.0, None) if diff else (float("inf"), None)
    if isinstance(diff, Cyc):
        return (0.0, None) if diff.is_zero() else (abs(diff.to_complex()), f"value {diff!r}")
    if isinstance(diff, Vec):
        if diff.is_zero():
            return 0.0, None
        i, v = max(diff.data.items(), key=lambda kv: abs(kv[1].to_complex()))
        return abs(v.to_complex()), f"entry {i}: {v!r}"
    if isinstance(diff, LinMap):
        if diff.is_zero():
            return 0.0, None
        i, j, v = max(diff.entries(), key=lambda e: abs(e[2].to_complex()))
        return abs(v.to_complex()), f"entry ({i}, {j}): {v!r}"
    raise TypeError(f"cannot interpret {type(diff)} as an exact check result")


def require_zero(diff, label: str):
    """CheckFailure naming ``label`` and the worst entry of a nonzero
    exact difference."""
    residual, where = _diff_witness(diff)
    if residual:
        witness = f"{label}: {where}"
        raise CheckFailure(witness, residual=residual, witness=witness)


class Checker:
    """Collects check records; one instance per suite section."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.records: list[CheckRecord] = []

    def _id(self, check_id: str) -> str:
        return f"{self.prefix}.{check_id}" if self.prefix else check_id

    def exact(self, check_id: str, law: str, builder: Callable[[], object]) -> CheckRecord:
        """Run an exact-arithmetic check.

        ``builder`` returns the difference (LinMap/Vec/Cyc, zero means pass)
        or a bool.  Structural failures (singular maps, explicit
        CheckFailure) are recorded, not raised.  Any other exception except
        an input error (``errors.INPUT_ERRORS``) is recorded as this
        check's failure with an "internal error: ..." witness, so the
        remaining checks still run.
        """
        t0 = time.perf_counter()
        try:
            diff = builder()
            residual, witness = _diff_witness(diff)
            status = PASS if residual == 0.0 else FAIL
        except SingularMap as e:
            status, residual = FAIL, None
            ker = ", ".join(repr(k.data) for k in e.kernel[:2])
            witness = f"{e} (kernel sample: {ker})" if e.kernel else str(e)
        except CheckFailure as e:
            status, residual, witness = FAIL, e.residual, e.witness or str(e)
        except INPUT_ERRORS:
            raise
        except Exception as e:
            status, residual, witness = FAIL, None, internal_error_text(e)
        rec = CheckRecord(self._id(check_id), law, status,
                          residual=residual, witness=witness,
                          wall_ms=(time.perf_counter() - t0) * 1000)
        self.records.append(rec)
        return rec

    def skip(self, check_id: str, law: str, reason: str) -> CheckRecord:
        rec = CheckRecord(self._id(check_id), law, SKIP, witness=reason)
        self.records.append(rec)
        return rec


def ensure(records: list[CheckRecord]):
    """Raise on the first failed record (for library callers and tests)."""
    for r in records:
        if not r.ok:
            raise CheckFailure(
                f"check {r.check_id} failed: {r.law}"
                + (f" (witness: {r.witness})" if r.witness else ""),
                residual=r.residual, witness=r.witness)
    return records


@dataclass
class Report:
    title: str
    meta: dict = field(default_factory=dict)
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def add(self, records: list[CheckRecord]):
        ids = {r.check_id for r in self.records}
        for r in records:
            if r.check_id in ids:
                raise QGError(f"duplicate check id in report: {r.check_id}")
            ids.add(r.check_id)
            self.records.append(r)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "meta": self.meta,
            "passed": sum(1 for r in self.records if r.status == PASS),
            "failed": sum(1 for r in self.records if r.status == FAIL),
            "skipped": sum(1 for r in self.records if r.status == SKIP),
            "checks": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def text_table(self) -> str:
        lines = [f"== {self.title} =="]
        for k in sorted(self.meta):
            lines.append(f"   {k}: {self.meta[k]}")
        width = max((len(r.check_id) for r in self.records), default=10) + 2
        for r in self.records:
            res = "exact" if r.status == PASS else (
                f"{r.residual:.2e}" if r.residual is not None else "-")
            line = f"{r.status.upper():5} {r.check_id:<{width}} {res:>10}  {r.law}"
            if r.witness and r.status != PASS:
                line += f"\n      -> {r.witness}"
            lines.append(line)
        lines.append(f"== {sum(r.status == PASS for r in self.records)} passed, "
                     f"{sum(r.status == FAIL for r in self.records)} failed, "
                     f"{sum(r.status == SKIP for r in self.records)} skipped ==")
        return "\n".join(lines)
