"""One seed run twice gives identical check ids and statuses."""

import os

import inputs
import run
from workloads import jobs


def test_same_seed_twice_matches_and_a_difference_is_flagged(tmp_path):
    generated, out = str(tmp_path / "inputs"), str(tmp_path / "out")
    os.makedirs(out)
    inputs.generate("exact-cyclotomic", generated)
    # taft3 has dim 9 > 8, so its adjoint relation is checked on seeded samples
    taft3 = [j for j in jobs("exact-cyclotomic", generated, out, 99)
             if j.name == "taft3"]
    assert "--seed" in taft3[0].argv and "99" in taft3[0].argv

    first = run.run_pass(taft3, run.cli_argv, out)
    second = run.run_pass(taft3, run.cli_argv, out)
    run.same_seed_check(first, second)
    assert first.errors == {} and second.errors == {}
    assert first.records == second.records

    cid, status = second.records["taft3"][0]
    second.records["taft3"][0] = (cid, "skip" if status != "skip" else "pass")
    run.same_seed_check(first, second)
    assert "taft3" in second.errors
