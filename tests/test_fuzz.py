"""Seeded mutation fuzzing of shipped input files through the CLI.

Each mutation breaks one shipped model or morphism file in one way (a
dropped field, a value of the wrong JSON type, a bad index, a bad scalar
string, an order out of range, a dimension mismatch, an emptied map) and
runs the verb in-process.  Property: the exit code is 0, 1 or 2, nothing
prints a traceback, and no check records an internal error.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from qgcheck.cli import dispatch

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
SEED = 20261018
MUTATIONS_PER_FILE = 15

MAP_FIELDS = ("mult", "coprod", "counit", "antipode", "invol")
WRONG_TYPES = ("x", 3, 2.5, True, None, [], {}, [["x"]])
BAD_SCALARS = ([""], ["1/0"], ["x"], ["1e5000"], ["1" + "0" * 400], [], "1",
               [1])
BAD_INDICES = (-1, 10 ** 6, 2.0, "0", None)


def _load(name: str) -> dict:
    return json.loads((MODELS_DIR / name).read_text())


def _entry_lists(doc: dict) -> list[str]:
    """Fields holding sparse [index..., scalar] entries, nonempty ones."""
    keys = ("unit",) + MAP_FIELDS + ("map",)
    return [k for k in keys if isinstance(doc.get(k), list) and doc[k]]


def kinds_for(doc: dict) -> list[str]:
    kinds = ["drop", "retype", "index", "duplicate", "scalar", "empty"]
    return kinds + ["order", "dim"] if "dim" in doc else kinds


def mutate(doc: dict, rng: random.Random, kind: str) -> tuple[str, dict]:
    """One mutation of the given kind, at a random place, of a model or
    morphism document."""
    doc = copy.deepcopy(doc)
    if kind == "drop":
        key = rng.choice(sorted(doc))
        del doc[key]
        return f"drop {key}", doc
    if kind == "retype":
        key = rng.choice(sorted(doc))
        doc[key] = rng.choice(WRONG_TYPES)
        return f"retype {key} -> {doc[key]!r}", doc
    if kind == "order":
        doc["order"] = rng.choice((0, 1001))
        return f"order {doc['order']}", doc
    if kind == "dim":
        doc["dim"] += rng.choice((-1, 1))
        return f"dim {doc['dim']}", doc
    key = rng.choice(_entry_lists(doc))
    entries = doc[key]
    if kind == "empty":
        doc[key] = []
        return f"empty {key}", doc
    pos = rng.randrange(len(entries))
    if kind == "duplicate":
        entries.append(copy.deepcopy(entries[pos]))
        return f"duplicate {key}[{pos}]", doc
    if kind == "index":
        slot = rng.randrange(len(entries[pos]) - 1)
        entries[pos][slot] = rng.choice(BAD_INDICES)
        return f"index {key}[{pos}][{slot}] = {entries[pos][slot]!r}", doc
    entries[pos][-1] = rng.choice(BAD_SCALARS)
    return f"scalar {key}[{pos}] = {entries[pos][-1]!r}", doc


def _cases():
    rng = random.Random(SEED)
    cases = []
    for name in ("c_z2", "sweedler", "taft3", "restrict_a3"):
        base = _load(f"{name}.json")
        kinds = kinds_for(base)
        for k in range(MUTATIONS_PER_FILE):
            label, doc = mutate(base, rng, kinds[k % len(kinds)])
            cases.append(pytest.param(name, doc,
                                      id=f"{name}-{k}-{label[:48]}"))
    return cases


@pytest.mark.parametrize("name, doc", _cases())
def test_mutated_input_exits_cleanly(name, doc, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    if name == "restrict_a3":
        argv = ["subgroup", "--g", str(MODELS_DIR / "c_s3.json"),
                "--h", str(MODELS_DIR / "c_z3.json"), "--map", str(path)]
    else:
        argv = ["verify", str(path), "--suite", "algebraic"]
    code = dispatch(argv + ["--report", str(report)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2), captured.err
    assert "Traceback" not in captured.out + captured.err
    if code == 2:
        assert captured.err.startswith("error: ")
    if report.exists():
        witnesses = [r["witness"] or ""
                     for r in json.loads(report.read_text())["checks"]]
        assert not any(w.startswith("internal error") for w in witnesses)


@pytest.mark.parametrize("scalar", [s for s in BAD_SCALARS
                                    if isinstance(s, list) and s],
                         ids=lambda s: repr(s)[:16])
def test_bad_scalar_string_exits_two_naming_the_field(scalar, tmp_path,
                                                      capsys):
    doc = _load("c_z2.json")
    doc["mult"][0][-1] = scalar
    path = tmp_path / "c_z2.json"
    path.write_text(json.dumps(doc))
    assert dispatch(["verify", str(path), "--suite", "algebraic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ".mult[" in err
    assert len(err) < 400
