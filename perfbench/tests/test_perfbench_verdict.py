"""The verdict checker that feeds the benchmark's failed-job count."""

import json

import run
from qgcheck import builtin, emit_model
from verdict import BROKEN_FAILS, judge
from workloads import CHECK_FAILED, OK, Job


def _verify_job(tmp_path, model="c_z2", expect_rc=OK, verdict="clean"):
    report = str(tmp_path / f"{model}.report.json")
    return Job(model, ("verify", model, "--suite", "all", "--seed", "5",
                       "--report", report), expect_rc, verdict,
               report=report)


def _doctor(path, edit):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    edit(report["checks"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def test_real_clean_job_passes_and_doctored_report_fails(tmp_path):
    job = _verify_job(tmp_path)
    result = run.run_pass([job], run.cli_argv, str(tmp_path))
    assert result.errors == {}
    assert result.checks_executed > 0

    def flip_one(checks):
        checks[3]["status"] = "fail"
    _doctor(job.report, flip_one)
    _, problem = judge(job, OK)
    assert problem is not None and "failed checks" in problem


def test_wrong_exit_code_fails(tmp_path):
    _, problem = judge(_verify_job(tmp_path), CHECK_FAILED)
    assert "exit code" in problem


def test_broken_model_needs_its_four_antipode_failures(tmp_path):
    job = _verify_job(tmp_path, "broken", CHECK_FAILED, "broken")
    result = run.run_pass([job], run.cli_argv, str(tmp_path))
    assert result.errors == {}
    assert {cid for cid, st in result.records["broken"]
            if st == "fail"} >= set(BROKEN_FAILS)

    def pass_one(checks):
        for c in checks:
            if c["check_id"] == BROKEN_FAILS[2]:
                c["status"] = "pass"
    _doctor(job.report, pass_one)
    _, problem = judge(job, CHECK_FAILED)
    assert BROKEN_FAILS[2] in problem


def test_dual_output_must_parse_at_the_expected_dim(tmp_path):
    out = str(tmp_path / "dual.json")
    emit_model(builtin("cg_z3"), out)
    good = Job("dual", ("dual",), OK, "dual", output=out, dual_dim=3)
    assert judge(good, OK)[1] is None
    wrong_dim = Job("dual", ("dual",), OK, "dual", output=out, dual_dim=4)
    assert "dim 3" in judge(wrong_dim, OK)[1]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("{}")
    assert "does not parse" in judge(good, OK)[1]
