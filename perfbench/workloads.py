"""The benchmark's workloads: which qgcheck commands one pass runs.

Each workload loads a different layer of the package (README.md gives
the predictions per layer):

* exact-cyclotomic: non-positive models of cyclotomic order 3 and 4, so
  the exact stack (scalars, linalg, hopf, duality) does all the work and
  the analytic tier refuses them; ``broken`` takes the FAIL path.
* subgroup-embed: the subgroup and dual verbs on generated files, which
  rebuild the same Haar, dual and GNS artifacts many times and read and
  write models through modelio.

The 36-dimensional double d_s3 is left out: one ``--suite all`` pass
takes about 82 s at 1.9 GB peak RSS on a 2-vCPU machine.  README.md says
why there is no workload for the analytic suite alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# exit codes of the qgcheck command
OK, CHECK_FAILED = 0, 1


@dataclass(frozen=True)
class Job:
    """One qgcheck command and what a correct run of it looks like.

    ``verdict`` is "clean" (every record passes or skips), "broken" (the
    antipode laws of the broken model fail) or "dual" (the written model
    parses back at ``dual_dim``).
    """

    name: str
    argv: tuple[str, ...]
    expect_rc: int
    verdict: str
    report: str | None = None
    output: str | None = None
    dual_dim: int | None = None


# model whose operands the primitive timings use, per workload
HEADLINE = {"exact-cyclotomic": "taft4",
            "subgroup-embed": "s4_a4_g.json"}
WORKLOADS = tuple(HEADLINE)


def _verify(name: str, model: str, suite: str, seed: int, out: str,
            expect_rc: int = OK, verdict: str = "clean") -> Job:
    report = os.path.join(out, f"{name}.report.json")
    return Job(name, ("verify", model, "--suite", suite, "--seed", str(seed),
                      "--report", report), expect_rc, verdict, report=report)


def _subgroup(stem: str, inputs: str, out: str) -> Job:
    report = os.path.join(out, f"{stem}.report.json")
    files = [os.path.join(inputs, f"{stem}_{part}.json")
             for part in ("g", "h", "map")]
    return Job(stem, ("subgroup", "--g", files[0], "--h", files[1],
                      "--map", files[2], "--report", report),
               OK, "clean", report=report)


def jobs(workload: str, inputs: str, out: str, seed: int) -> list[Job]:
    """The job list of one pass.  ``inputs`` holds the generated files,
    ``out`` receives reports and written models."""
    if workload == "exact-cyclotomic":
        return [_verify("taft4", "taft4", "all", seed, out),
                _verify("taft3", "taft3", "all", seed, out),
                _verify("broken", "broken", "all", seed, out,
                        expect_rc=CHECK_FAILED, verdict="broken")]
    if workload == "subgroup-embed":
        dual = os.path.join(out, "c_d6_dual.json")
        return [_subgroup("s4_a4", inputs, out),
                _subgroup("d6_s3", inputs, out),
                Job("dual_d6", ("dual", os.path.join(inputs, "d6_s3_g.json"),
                                "-o", dual), OK, "dual", output=dual,
                    dual_dim=12)]
    raise KeyError(workload)


def headline_model(workload: str, inputs: str) -> str:
    """Built-in name or file path of the workload's headline model."""
    ref = HEADLINE[workload]
    return os.path.join(inputs, ref) if ref.endswith(".json") else ref
