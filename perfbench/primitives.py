"""Time the scalar and linalg primitives on one model's own operands.

Run in a fresh interpreter from the root of a checkout, without a
profiler, so leaf-call costs are not inflated:

    python3 perfbench/primitives.py MODEL

MODEL is a built-in name or a model file.  Prints one JSON object with
the median time of each primitive.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import timeit

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from qgcheck import LinMap, builtin, galois, inverse, parse_model  # noqa: E402

REPEATS = 5


def structure_constants(model):
    """The two most involved distinct nonzero structure constants.

    "Most involved" means most nonzero cyclotomic coefficients, ties
    broken by their text, so the choice is the same on every run.
    """
    values = {v for m in (model.mult, model.coprod, model.antipode)
              for _, _, v in m.entries() if not v.is_zero()}
    ranked = sorted(values, key=lambda v: (sum(1 for c in v.coeffs if c),
                                           repr(v)))
    return ranked[-1], ranked[-2] if len(ranked) > 1 else ranked[-1]


def per_call_us(stmt) -> float:
    """Median per-call time of a fast callable, in microseconds."""
    timer = timeit.Timer(stmt)
    number, _ = timer.autorange()
    runs = timer.repeat(REPEATS, number)
    return statistics.median(runs) / number * 1e6


def per_call_ms(stmt, repeats: int = REPEATS) -> float:
    """Median wall time of a slow callable, in milliseconds."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        stmt()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs) * 1e3


def measure(model) -> dict[str, float]:
    a, b = structure_constants(model)
    g = galois(model)
    rl, rr = g["rl"], g["rr"]
    dims4 = (model.dim,) * 4
    return {
        "scalars.mul_us": per_call_us(lambda: a * b),
        "scalars.inverse_us": per_call_us(a.inverse),
        # the reorder check_convolution_compat materializes
        "linalg.leg_permutation_ms": per_call_ms(
            lambda: LinMap.leg_permutation(dims4, (1, 2, 0, 3)), repeats=3),
        "linalg.matmul_ms": per_call_ms(lambda: rl @ rr),
        "linalg.inverse_ms": per_call_ms(lambda: inverse(rl)),
    }


def load(ref: str):
    return parse_model(ref) if os.path.exists(ref) else builtin(ref)


if __name__ == "__main__":
    print(json.dumps(measure(load(sys.argv[1]))))
