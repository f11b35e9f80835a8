"""CLI behavior: verbs, suites, exit codes, reports, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qgcheck import cli, duality, hopf, modular
from qgcheck import gns as G
from qgcheck.cli import dispatch, main
from qgcheck.linalg import LinMap
from qgcheck.modelio import emit_table, model_to_dict, parse_model
from qgcheck.models import MAX_TAFT_ORDER, GroupTable, builtin
from qgcheck.scalars import MAX_ORDER

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def model_path(name):
    return str(MODELS_DIR / f"{name}.json")


def test_verify_builtin_name():
    assert main(["verify", "trivial"]) == 0


def test_verify_model_file():
    assert main(["verify", model_path("c_z2")]) == 0


def test_verify_broken_model_exits_one(capsys):
    assert main(["verify", model_path("broken")]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_unknown_model_exits_two(capsys):
    assert main(["verify", "no_such_model"]) == 2
    assert "built-ins" in capsys.readouterr().err


def test_verify_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_explicit_analytic_suite_is_refused_off_tier(capsys):
    assert main(["verify", model_path("sweedler"), "--suite", "analytic"]) == 2
    assert "mu" in capsys.readouterr().err


def test_suite_all_skips_analytic_off_tier(capsys):
    assert main(["verify", model_path("sweedler"), "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out and "analytic.tier" in out


def test_report_is_deterministic_for_fixed_seed(tmp_path):
    reports = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        code = main(["verify", model_path("c_s3"), "--seed", "7",
                     "--report", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        for rec in data["checks"]:
            rec.pop("wall_ms")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]


def test_tol_changes_no_result(tmp_path):
    # --tol is validated and recorded in meta.tol; every law is exact, so
    # the records equal those of a run without it
    reports = []
    for label, argv in (("tol", ["--tol", "1e-8"]), ("default", [])):
        out = tmp_path / f"{label}.json"
        assert main(["verify", model_path("c_z3"), *argv,
                     "--report", str(out)]) == 0
        data = json.loads(out.read_text())
        for rec in data["checks"]:
            rec.pop("wall_ms")
        reports.append(data)
    with_tol, without = reports
    assert with_tol["meta"].pop("tol") == 1e-8
    assert without["meta"].pop("tol") is None
    assert with_tol == without


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_unusable_tol_exits_two_before_model_work(value, monkeypatch, capsys):
    built = _record_calls(monkeypatch, modular, "_solve_haar")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "c_z2", "--tol", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tol" in err and "Gram" not in err
    assert built == []


@pytest.mark.parametrize("value", ["-1", "1.5", "x"])
def test_unusable_seed_exits_two_before_model_work(value, monkeypatch,
                                                   capsys):
    built = _record_calls(monkeypatch, modular, "_solve_haar")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "c_z2", "--seed", value])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("verb", ["verify", "dual", "build-taft"])
def test_unopenable_output_path_exits_two(verb, tmp_path, capsys):
    out = str(tmp_path / "missing" / "out.json")
    argv = {"verify": ["verify", "c_z2", "--suite", "algebraic",
                       "--report", out],
            "dual": ["dual", "c_z2", "-o", out],
            "build-taft": ["build-taft", "--n", "2", "-o", out]}[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert out in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["verify", "dual", "subgroup",
                                  "build-group", "build-taft"])
def test_missing_output_directory_exits_two_before_model_work(
        verb, tmp_path, monkeypatch, capsys):
    built = _record_calls(monkeypatch, modular, "_solve_haar")
    out = str(tmp_path / "missing" / "out.json")
    table = tmp_path / "z2.json"
    emit_table(GroupTable.cyclic(2), str(table))
    argv = {"verify": ["verify", "c_z2", "--report", out],
            "dual": ["dual", "c_z2", "-o", out],
            "subgroup": ["subgroup", "--g", model_path("c_s3"),
                         "--h", model_path("c_z3"),
                         "--map", str(MODELS_DIR / "restrict_a3.json"),
                         "--report", out],
            "build-group": ["build-group", "--table", str(table),
                            "--kind", "double", "-o", out],
            "build-taft": ["build-taft", "--n", "3", "-o", out]}[verb]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert out in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert built == []


def test_output_path_naming_a_directory_exits_two(tmp_path, monkeypatch,
                                                  capsys):
    built = _record_calls(monkeypatch, modular, "_solve_haar")
    assert main(["dual", "c_z2", "-o", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 10**9])
def test_model_order_above_cap_exits_two(order, tmp_path, capsys):
    d = model_to_dict(builtin("c_z2"))
    d["order"] = order
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(d))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "field 'order'" in err and str(MAX_ORDER) in err


@pytest.mark.parametrize("n", [MAX_TAFT_ORDER + 1, MAX_ORDER + 1])
def test_build_taft_above_order_cap_exits_two(n, tmp_path, monkeypatch,
                                              capsys):
    built = _record_calls(monkeypatch, cli, "build_taft")
    out = tmp_path / "t.json"
    assert main(["build-taft", "--n", str(n), "-o", str(out)]) == 2
    assert "--n" in capsys.readouterr().err
    assert not out.exists()
    assert built == []


def test_tol_does_not_leak_into_later_runs(tmp_path):
    assert main(["verify", "c_z2", "--tol", "1e-14"]) == 0
    out = tmp_path / "c_z2.json"
    assert main(["verify", "c_z2", "--report", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["tol"] is None


def _taft3_records(argv, out) -> dict:
    """The report of ``verify taft3 argv``, without its wall times."""
    assert main(["verify", "taft3", *argv, "--report", str(out)]) == 0
    data = json.loads(out.read_text())
    for rec in data["checks"]:
        rec.pop("wall_ms")
    return data


@pytest.fixture(scope="module")
def taft3_seed_zero(tmp_path_factory):
    return _taft3_records(["--seed", "0"],
                          tmp_path_factory.mktemp("seed") / "taft3-0.json")


@pytest.mark.parametrize("argv, seed", [(["--seed", "7"], 7), ([], 1729)])
def test_seed_reaches_exact_tier_sampler(argv, seed, taft3_seed_zero,
                                         tmp_path):
    # the seed reaches meta.seed and nothing else: the exact tier has no
    # sampler, so taft3 (dim 9, where the adjoint relation and, on larger
    # models, the pentagon were once sampled) gives the same records under
    # --seed 7, the default seed and seed 0
    data = _taft3_records(argv, tmp_path / "taft3.json")
    assert data["meta"].pop("seed") == seed
    reference = dict(taft3_seed_zero, meta=dict(taft3_seed_zero["meta"]))
    assert reference["meta"].pop("seed") == 0
    assert data == reference


def test_verify_permutes_at_most_two_legs(monkeypatch):
    # a permutation of k legs is a d^k-column matrix; no exact law needs
    # more than the flip
    legs, permute = [], LinMap.leg_permutation

    def spy(dims, perm):
        legs.append(len(dims))
        return permute(dims, perm)

    monkeypatch.setattr(LinMap, "leg_permutation", staticmethod(spy))
    assert main(["verify", "taft3", "--suite", "algebraic"]) == 0
    assert legs and max(legs) <= 2


def _record_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a spy; the list collects the models passed."""
    calls, build = [], getattr(module, name)

    def spy(model):
        calls.append(model)
        return build(model)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_subgroup_builds_haar_and_dual_once_per_model(monkeypatch):
    haar = _record_calls(monkeypatch, modular, "_solve_haar")
    dual = _record_calls(monkeypatch, duality, "_build_dual")
    assert dispatch(["subgroup", "--g", model_path("c_s3"),
                     "--h", model_path("c_z3"),
                     "--map", str(MODELS_DIR / "restrict_a3.json")]) == 0
    for calls in (haar, dual):
        assert calls
        assert len({id(m) for m in calls}) == len(calls)


def test_verify_builds_mult_unitary_once(monkeypatch):
    w = _record_calls(monkeypatch, duality, "_build_alg_mult_unitary")
    assert dispatch(["verify", model_path("c_s3"), "--suite", "all"]) == 0
    assert len(w) == 1


def _record_galois(monkeypatch) -> list:
    """Spy on the per-key Galois constructor; collects (model, key) pairs."""
    calls, build = [], hopf._build_galois

    def spy(model, key):
        calls.append((model, key))
        return build(model, key)

    monkeypatch.setattr(hopf, "_build_galois", spy)
    return calls


def _galois_keys_per_model(calls) -> list:
    """Sorted keys built per model; a key built twice appears twice."""
    per_model = {}
    for m, key in calls:
        per_model.setdefault(id(m), []).append(key)
    return [sorted(keys) for keys in per_model.values()]


def test_verify_builds_only_the_galois_maps_it_uses(monkeypatch):
    calls = _record_galois(monkeypatch)
    assert dispatch(["verify", model_path("c_s3"), "--suite", "all"]) == 0
    assert _galois_keys_per_model(calls) == [
        sorted(["gl", "gr", "rl", "rr", "rl_op", "rr_op"])]


def test_subgroup_builds_no_galois_map_unitary_or_modular_layer(monkeypatch):
    galois = _record_galois(monkeypatch)
    w = _record_calls(monkeypatch, duality, "_build_alg_mult_unitary")
    gns, build_gns = [], G.build_gns

    def spy_gns(model, *args):
        gns.append(model)
        return build_gns(model, *args)

    monkeypatch.setattr(G, "build_gns", spy_gns)
    assert dispatch(["subgroup", "--g", model_path("c_s3"),
                     "--h", model_path("c_z3"),
                     "--map", str(MODELS_DIR / "restrict_a3.json")]) == 0
    assert galois == [] and w == [] and gns == []


def test_dual_output_verifies_and_roundtrips(tmp_path):
    out = tmp_path / "dual.json"
    assert main(["dual", model_path("c_z2"), "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    dual = parse_model(str(out))
    assert dual.name == "c(z2)^"
    assert dual.dim == 2


def test_build_group_matches_builtin(tmp_path):
    out = tmp_path / "c_s3.json"
    assert main(["build-group", "--table", str(MODELS_DIR / "s3_table.json"),
                 "--kind", "function", "-o", str(out)]) == 0
    built = parse_model(str(out))
    reference = builtin("c_s3")
    assert built.name == reference.name
    assert (built.mult - reference.mult).is_zero()
    assert (built.coprod - reference.coprod).is_zero()


@pytest.mark.parametrize("kind", ["function", "group", "double"])
def test_build_group_refuses_an_empty_table(kind, tmp_path, capsys):
    table = tmp_path / "e.json"
    table.write_text('{"name": "e", "elements": [], "table": []}')
    out = tmp_path / "out.json"
    assert main(["build-group", "--table", str(table), "--kind", kind,
                 "-o", str(out)]) == 2
    assert "elements" in capsys.readouterr().err
    assert not out.exists()


def test_build_taft_rejects_small_order(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["build-taft", "--n", "1", "-o", str(out)]) == 2
    assert ">= 2" in capsys.readouterr().err


def test_build_taft_emits_model(tmp_path):
    out = tmp_path / "t.json"
    assert main(["build-taft", "--n", "3", "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_subgroup_verb_passes_on_shipped_restriction(tmp_path):
    report = tmp_path / "sub.json"
    code = main(["subgroup", "--g", model_path("c_s3"),
                 "--h", model_path("c_z3"),
                 "--map", str(MODELS_DIR / "restrict_a3.json"),
                 "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["failed"] == 0
    ids = {rec["check_id"] for rec in data["checks"]}
    assert any(i.endswith("vaes.injective") for i in ids)


def test_subgroup_verb_rejects_mismatched_models(capsys):
    code = main(["subgroup", "--g", model_path("c_s3"),
                 "--h", model_path("c_z2"),
                 "--map", str(MODELS_DIR / "restrict_a3.json")])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_subgroup_verb_fails_on_invalid_morphism(tmp_path, capsys):
    bad = {"source": "c(s3)", "target": "c(z3)",
           "map": [[0, 0, ["1"]], [1, 1, ["1"]], [2, 2, ["1"]]]}
    mapfile = tmp_path / "bad_map.json"
    mapfile.write_text(json.dumps(bad))
    code = main(["subgroup", "--g", model_path("c_s3"),
                 "--h", model_path("c_z3"), "--map", str(mapfile)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("content", ["5", "[]", '"x"'])
@pytest.mark.parametrize("verb", ["build-group", "subgroup"])
def test_non_object_json_input_exits_two(verb, content, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    if verb == "build-group":
        argv = ["build-group", "--table", str(bad), "--kind", "function",
                "-o", str(tmp_path / "out.json")]
    else:
        argv = ["subgroup", "--g", model_path("c_s3"),
                "--h", model_path("c_z3"), "--map", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "JSON object" in err
    assert "Traceback" not in err


# -- no verb loads numpy ------------------------------------------------------


def _fresh_python(code: str) -> dict:
    """Run code in a new interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_EXACT_ONLY = {
    "import-cli": "import qgcheck.cli",
    "library-exact": (
        "import qgcheck\n"
        "from qgcheck import GroupTable, build_function_algebra, emit_model\n"
        "import tempfile, os\n"
        "model = build_function_algebra(GroupTable.symmetric(4))\n"
        "with tempfile.TemporaryDirectory() as d:\n"
        "    emit_model(model, os.path.join(d, 'c_s4.json'))"),
}
_EXACT_ONLY.update({
    f"verify-{m}": ("import contextlib, io\n"
                    "from qgcheck.cli import main\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    rc = main(['verify', '{m}', '--suite', 'all'])")
    for m in ("taft4", "taft3", "broken")})
# --tol is validated without loading numpy
_EXACT_ONLY["verify-taft3-algebraic-tol"] = (
    "import contextlib, io\n"
    "from qgcheck.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = main(['verify', 'taft3', '--suite', 'algebraic', "
    "'--tol', '1e-8'])")
# subgroup certificates: every record, the representation-level ones
# included, is exact
_EXACT_ONLY["subgroup-restrict_a3"] = (
    "import contextlib, io\n"
    "from qgcheck.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    f"    rc = main(['subgroup', '--g', {model_path('c_s3')!r}, "
    f"'--h', {model_path('c_z3')!r}, "
    f"'--map', {str(MODELS_DIR / 'restrict_a3.json')!r}])")
_EXACT_ONLY["subgroup-s4_a4"] = (
    "import contextlib, io, itertools, os, tempfile\n"
    "from qgcheck import (GroupTable, emit_model, emit_morphism,\n"
    "                     restriction_morphism)\n"
    "from qgcheck.cli import main\n"
    "s4 = GroupTable.symmetric(4)\n"
    "even = [i for i, p in enumerate(s4.elements)\n"
    "        if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]\n"
    "mor = restriction_morphism(s4, even)\n"
    "with tempfile.TemporaryDirectory() as d, "
    "contextlib.redirect_stdout(io.StringIO()):\n"
    "    g, h, m = (os.path.join(d, f) for f in ('g.json', 'h.json', 'm.json'))\n"
    "    emit_model(mor.source, g)\n"
    "    emit_model(mor.target, h)\n"
    "    emit_morphism(mor, m)\n"
    "    rc = main(['subgroup', '--g', g, '--h', h, '--map', m])")
# positive models: the exact Gram positivity test and the analytic suite
# run without numpy
_EXACT_ONLY.update({
    f"verify-{m}-{suite}": (
        "import contextlib, io\n"
        "from qgcheck.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main(['verify', '{m}', '--suite', '{suite}'])")
    for m, suite in (("c_s3", "algebraic"), ("c_s3", "all"),
                     ("c_z2", "analytic"))})
_EXACT_ONLY.update({
    "dual-c_s3": (
        "import contextlib, io, os, tempfile\n"
        "from qgcheck.cli import main\n"
        "with tempfile.TemporaryDirectory() as d, "
        "contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main(['dual', {model_path('c_s3')!r}, "
        "'-o', os.path.join(d, 'dual.json')])"),
})


@pytest.mark.parametrize("case", sorted(_EXACT_ONLY))
def test_exact_tier_work_does_not_import_numpy(case):
    out = _fresh_python(
        _EXACT_ONLY[case] + "\nimport json, sys\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules, "
        "'rc': globals().get('rc')}))")
    assert out["numpy"] is False
    if case.startswith(("verify-", "dual-", "subgroup-")):
        assert out["rc"] == (1 if case == "verify-broken" else 0)


def _blocked_numpy_run(argv) -> dict:
    """rc and stderr of main(argv) in a fresh interpreter without numpy."""
    return _fresh_python(
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from qgcheck.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(err):\n"
        f"    rc = main({argv!r})\n"
        "print(json.dumps({'rc': rc, 'err': err.getvalue()}))")


def test_subgroup_runs_with_numpy_blocked(tmp_path):
    report = tmp_path / "sub.json"
    out = _blocked_numpy_run([
        "subgroup", "--g", model_path("c_s3"), "--h", model_path("c_z3"),
        "--map", str(MODELS_DIR / "restrict_a3.json"),
        "--report", str(report)])
    assert out == {"rc": 0, "err": ""}
    checks = json.loads(report.read_text())["checks"]
    assert sum(".vaes." in r["check_id"] for r in checks) == 11
    assert {r["check_id"] for r in checks if r["status"] != "pass"} == {
        "c(s3)->c(z3).expectation.involution-caveat"}

    # the exact tier needs no numpy: verify --suite algebraic and dual
    assert _blocked_numpy_run(
        ["verify", "taft3", "--suite", "algebraic"]) == {"rc": 0, "err": ""}
    assert _blocked_numpy_run(
        ["dual", model_path("c_s3"), "-o", str(tmp_path / "dual.json")]) \
        == {"rc": 0, "err": ""}
    # nor does the analytic suite: it runs, every record passes and
    # nothing is skipped
    for suite in ("analytic", "all"):
        report = tmp_path / f"{suite}.json"
        assert _blocked_numpy_run(["verify", "c_z2", "--suite", suite,
                                   "--report", str(report)]) \
            == {"rc": 0, "err": ""}
        data = json.loads(report.read_text())
        assert data["failed"] == data["skipped"] == 0
        analytic = [r for r in data["checks"] if ".gns." in r["check_id"]]
        assert analytic and all(r["status"] == "pass" for r in analytic)


def test_float_tier_names_resolve_from_the_package():
    # the gns names load on first access, and nothing loads numpy
    out = _fresh_python(
        "import json, sys\n"
        "import qgcheck\n"
        "before = 'qgcheck.gns' in sys.modules\n"
        "names = [qgcheck.build_gns.__name__,\n"
        "         qgcheck.GnsRealization.__name__]\n"
        "star = {}\n"
        "exec('from qgcheck import *', star)\n"
        "missing = [n for n in qgcheck.__all__ if n not in star]\n"
        "print(json.dumps({'before': before, 'names': names, "
        "'missing': missing, 'numpy': 'numpy' in sys.modules}))")
    assert out == {"before": False, "names": ["build_gns", "GnsRealization"],
                   "missing": [], "numpy": False}


# -- internal errors ---------------------------------------------------------


@pytest.mark.parametrize("verb", ["verify", "dual", "subgroup"])
def test_internal_error_exits_three_without_traceback(verb, tmp_path,
                                                      monkeypatch, capsys):
    def broken_builder(model):
        raise KeyError("no such column")

    monkeypatch.setattr(duality, "_build_dual", broken_builder)
    argv = {"verify": ["verify", model_path("c_z2"), "--suite", "algebraic"],
            "dual": ["dual", model_path("c_z2"), "-o",
                     str(tmp_path / "d.json")],
            "subgroup": ["subgroup", "--g", model_path("c_s3"),
                         "--h", model_path("c_z3"),
                         "--map", str(MODELS_DIR / "restrict_a3.json")]}[verb]
    assert main(argv) == cli.INTERNAL_ERROR == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [
        "internal error: KeyError: 'no such column'"]


def test_internal_error_inside_a_check_fails_only_that_check(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    argv = ["verify", model_path("c_z2"), "--suite", "algebraic", "--report"]
    clean = tmp_path / "clean.json"
    assert main(argv + [str(clean)]) == 0
    build = modular._invariance_system

    def broken_system(model, side):
        if side == "right":  # solve_haar only asks for the left system
            raise KeyError("no such column")
        return build(model, side)

    monkeypatch.setattr(modular, "_invariance_system", broken_system)
    report = tmp_path / "broken.json"
    assert main(argv + [str(report)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    records = {r["check_id"]: r for r in json.loads(report.read_text())["checks"]}
    failed = [i for i, r in records.items() if r["status"] == "fail"]
    assert failed == ["c(z2).haar.right-unique"]
    assert records[failed[0]]["witness"].startswith("internal error: KeyError")
    expected = [r["check_id"] for r in json.loads(clean.read_text())["checks"]]
    assert list(records) == expected
