"""Decide whether one finished qgcheck job gave the right verdict."""

from __future__ import annotations

import json

from workloads import Job

BROKEN_FAILS = tuple(f"broken.hopf.antipode.{law}"
                     for law in ("left", "right", "anti-mult", "star"))


def load_report(path: str) -> list[tuple[str, str]]:
    """(check id, status) of every record in a report file."""
    with open(path, encoding="utf-8") as fh:
        return [(c["check_id"], c["status"]) for c in json.load(fh)["checks"]]


def judge(job: Job, rc: int) -> tuple[list[tuple[str, str]], str | None]:
    """The job's (check id, status) records and the reason it failed,
    None when the verdict is the expected one."""
    if rc != job.expect_rc:
        return [], f"exit code {rc}, expected {job.expect_rc}"
    records = []
    if job.report is not None:
        try:
            records = load_report(job.report)
        except (OSError, ValueError, KeyError, TypeError) as e:
            return [], f"unreadable report {job.report}: {e}"
        failed = {cid for cid, status in records if status == "fail"}
        if job.verdict == "clean" and failed:
            return records, f"failed checks: {sorted(failed)}"
        if job.verdict == "broken":
            missing = [cid for cid in BROKEN_FAILS if cid not in failed]
            if missing:
                return records, f"expected failures missing: {missing}"
    if job.verdict == "dual":
        from qgcheck import QGError, parse_model
        try:
            dim = parse_model(job.output).dim
        except QGError as e:
            return records, f"dual output does not parse: {e}"
        if dim != job.dual_dim:
            return records, f"dual output has dim {dim}, expected {job.dual_dim}"
    return records, None


def executed(records: list[tuple[str, str]]) -> int:
    """Records that ran a check: passes and failures, not skips."""
    return sum(status in ("pass", "fail") for _, status in records)
