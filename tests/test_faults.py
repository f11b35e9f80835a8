"""The fault catalogue (tools/faults.py) and the gate that runs it
(tools/compare_reports.py)."""

import ast
import os
from pathlib import Path

import pytest

import compare_reports
import faults
import qgcheck
from faults import FILE_FAULTS, Fault

TOOLS = Path(faults.__file__).resolve().parent


@pytest.fixture(scope="module")
def jobs():
    return faults.jobs()


def test_every_fault_changes_its_artifact_on_every_target(jobs, tmp_path):
    # Fault.apply raises on a fault that leaves its artifact equal
    assert len(jobs) == 285
    models, maps = faults.write_mutants(str(tmp_path))
    assert (len(models), len(maps)) == (48, 4)


def test_the_gate_runs_one_analytic_mutant_job_per_refusal(tmp_path):
    # every --suite analytic mutant job exits 2 before any record runs;
    # a stem of REFUSALS that no mutant has would drop its job unseen
    models, maps = faults.write_mutants(str(tmp_path))
    stems = {Path(p).stem for p in models}
    assert compare_reports.REFUSALS <= stems and len(compare_reports.REFUSALS) == 9
    labels = [label for label, _, _ in compare_reports.jobs(
        "models", "inputs", models, maps)]
    assert len(labels) == 96
    assert sorted(lb.split()[-1] for lb in labels if "analytic mutant" in lb) \
        == sorted(compare_reports.REFUSALS)
    assert sum("algebraic mutant" in lb for lb in labels) == len(models) == 48


def test_fault_names_are_unique(jobs):
    assert len({job[:2] for job in jobs}) == len(jobs)
    assert len({f.name for f in FILE_FAULTS.values()}) == len(FILE_FAULTS)


def test_a_fault_that_changes_nothing_fails():
    clean = qgcheck.build_dual(qgcheck.solve_haar(qgcheck.builtin("c_z2")))
    # on C(Z2) the antipode is the identity, and so is sigma
    with pytest.raises(ValueError, match=r"^fault duality\.haar\.sigma\[all\]"
                                         r"\.antipode changes nothing$"):
        Fault("duality.haar.sigma", "antipode").apply(
            qgcheck.build_alg_mult_unitary(clean))


def test_the_catalogue_reads_only_public_qgcheck_names():
    """No import of a qgcheck module, only names in qgcheck.__all__, and no
    private attribute (dunders are Python's): a renamed internal breaks a
    fault loudly."""
    imported = set()
    for node in ast.walk(ast.parse((TOOLS / "faults.py").read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("qgcheck.") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("qgcheck."), node.module
            if node.module == "qgcheck":
                imported |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            assert not node.attr.startswith("_") or node.attr.endswith("__"), \
                node.attr
    assert imported and imported <= set(qgcheck.__all__)


def test_the_gate_stops_on_a_fault_of_a_missing_field(tmp_path, capsys):
    # a checkout whose own driver, tools/faults.py, holds one fault of a
    # field that does not exist: the gate runs that driver and stops
    (tmp_path / "tools").mkdir()
    os.symlink(TOOLS.parent / "src", tmp_path / "src")
    (tmp_path / "tools" / "faults.py").write_text(
        f"import sys\nsys.path.insert(0, {str(TOOLS)!r})\nimport faults\n"
        "faults.MODEL_TARGETS, faults.MORPHISM_TARGETS = ('sweedler',), {}\n"
        "faults.model_faults = lambda a: [\n"
        "    faults.Fault('duality.no_such_field', 'raise')]\n"
        "sys.exit(faults.main())\n")
    assert compare_reports.main([str(tmp_path), str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "fault duality.no_such_field[middle].raise on sweedler cannot " \
           "be applied: AttributeError" in out, out


def test_coverage_names_uncovered_ids_and_stale_excuses():
    seen = {"a": {"pass", "fail"}, "b": {"pass"}, "c": {"fail"},
            "x": {"fail"}}
    rows, problems = compare_reports.coverage(
        seen, {"a", "b", "c", "d"}, {"c": "why", "d": "a skip", "e": "gone"})
    assert [row.split() for row in rows] == [
        ["a", "PASS", "FAIL"], ["b", "PASS", "-"],
        ["c", "-", "FAIL", "excused:", "why"],
        ["d", "-", "-", "excused:", "a", "skip"],
        ["x", "-", "FAIL"]]
    assert problems == [
        "b: no job sees it FAIL and it has no excuse",
        "c: seen FAIL, so its excuse is stale",
        "e: excused, but no verify --suite all or subgroup report has it"]
    assert all(compare_reports.EXCUSED.values())


def _statuses(mw) -> dict[str, str]:
    """Status per check id, without the model prefix, of the fault driver's
    algebraic and analytic families on mw's chain."""
    return {r.check_id.split(".", 1)[1]: r.status
            for family in faults.model_families(mw) for r in family()}


@pytest.mark.parametrize("fault, reached", [
    (Fault("w", "raise", "sorted"), ("munitary.pentagon",)),
    (Fault("duality.haar.gram", "drop"),
     ("munitary.lemma.gram-unitary", "gns.w.unitary"))], ids=["w", "gram"])
def test_a_fault_applied_after_the_build_reaches_its_readers(fault, reached,
                                                             mw_cache):
    """Each stage reads the stage before it from its arguments only, so a
    fault of w or of the Haar data's Gram matrix, applied after the chain
    is built, fails the records that read it."""
    mw = mw_cache("c_s3")
    clean, faulted = _statuses(mw), _statuses(fault.apply(mw))
    assert {cid: (clean[cid], faulted[cid]) for cid in reached} \
        == dict.fromkeys(reached, ("pass", "fail"))


@pytest.mark.parametrize("name", ["sweedler", "c_s3"])
def test_a_dual_haar_fault_that_admits_no_bidual_fails_one_record(name,
                                                                 mw_cache):
    """Dropping an entry of the dual's P^-1 leaves no invariant functional
    on the double dual: the biduality family records that as one FAIL
    instead of raising for the whole family."""
    mw = Fault("duality.dual_haar.pmat_inv", "drop").apply(mw_cache(name))
    records = qgcheck.check_biduality(mw.duality)
    model = mw.duality.source.name
    assert [(r.check_id, r.status) for r in records] \
        == [(f"{model}.suite.bidual", "fail")]
    assert records[0].witness == (f"{model}^^: left-invariant functional "
                                  "space has dimension 0, expected 1")
