"""File-format tests: model, table and morphism files."""

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from qgcheck.cli import main
from qgcheck.errors import ModelError, ParseError
from qgcheck.linalg import LinMap
from qgcheck.modelio import (_scalar_to_json, emit_model, emit_morphism,
                             emit_table, model_from_dict, model_to_dict,
                             parse_model, parse_morphism, parse_table,
                             table_to_dict, write_report)
from qgcheck.models import GroupTable, builtin
from qgcheck.report import CheckRecord, Report, ensure
from qgcheck.scalars import Cyc
from qgcheck.subgroups import QGMorphism, validate_morphism

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
SHIPPED = ["trivial", "c_z2", "c_z3", "c_z4", "c_s3", "cg_z2", "cg_z3",
           "cg_s3", "d_z2", "d_z3", "sweedler", "taft3", "broken"]


def assert_same_model(a, b):
    assert a.name == b.name
    assert a.order == b.order
    assert a.dim == b.dim
    assert a.basis == b.basis
    assert a.positive == b.positive
    assert (a.unit - b.unit).is_zero()
    for field in ("mult", "coprod", "counit", "antipode", "invol"):
        assert (getattr(a, field) - getattr(b, field)).is_zero(), field


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_model_files_match_builders(name):
    assert_same_model(parse_model(str(MODELS_DIR / f"{name}.json")),
                      builtin(name))


@pytest.mark.parametrize("name", ["c_s3", "taft3", "d_z3"])
def test_round_trip(name, tmp_path):
    first = parse_model(str(MODELS_DIR / f"{name}.json"))
    out = tmp_path / "again.json"
    emit_model(first, str(out))
    assert_same_model(parse_model(str(out)), first)


def test_scalars_are_written_in_the_declared_order(tmp_path):
    """taft3's zeta_3 entries, in a model declared at order 6, are written
    in the power basis of zeta_6 and read back as zeta_3."""
    model = replace(builtin("taft3"), order=6)
    assert model.mult.entry(4, 12) == Cyc.zeta(3)
    out = tmp_path / "order6.json"
    emit_model(model, str(out))
    back = parse_model(str(out))
    assert back.order == 6
    assert_same_model(back, model)


def test_morphism_scalars_live_in_the_lcm_field(tmp_path):
    """An order-12 entry of a morphism from an order-4 model to an order-3
    one is written and read in Q(zeta_12), not in the larger model's
    order."""
    source, target = builtin("taft4"), builtin("taft3")
    z12 = Cyc.zeta(12)
    mor = QGMorphism(source, target,
                     LinMap.from_entries(source.A, target.A, [(1, 2, z12)]))
    out = tmp_path / "map.json"
    emit_morphism(mor, str(out))
    assert json.loads(out.read_text())["map"] == [[1, 2, ["0", "1"]]]
    assert parse_morphism(str(out), source, target).pi == mor.pi


def test_morphism_field_above_the_order_cap_is_refused(tmp_path):
    source = replace(builtin("c_z2"), order=997)
    target = replace(builtin("c_z2"), order=991)
    out = tmp_path / "map.json"
    out.write_text(json.dumps({"source": source.name, "target": target.name,
                               "map": []}))
    with pytest.raises(ParseError, match=r"Q\(zeta_988027\)"):
        parse_morphism(str(out), source, target)


def test_scalar_of_a_larger_order_in_the_declared_field(tmp_path):
    """zeta_6, held at order 6, lies in Q(zeta_3): it is written as
    1 + zeta_3 and an order-3 model holding it survives a round trip."""
    assert _scalar_to_json(Cyc.zeta(6), 3) == ["1", "1"]
    model = builtin("taft3")
    mult = model.mult.scale(Cyc.zeta(6))
    assert mult.entry(0, 0) == Cyc.zeta(6) and mult.entry(0, 0).order == 6
    six = replace(model, mult=mult)
    out = tmp_path / "zeta6.json"
    emit_model(six, str(out))
    back = parse_model(str(out))
    assert back.order == 3
    assert_same_model(back, six)


def test_scalar_outside_the_declared_field_is_refused():
    with pytest.raises(ModelError, match=r"Q\(zeta_3\) cannot be written "
                                         r"in the declared field Q\(zeta_4\)"):
        model_to_dict(replace(builtin("taft3"), order=4))


@pytest.mark.parametrize("name", ["c_s3", "taft3"])
def test_read_rationals_are_the_shared_constants(name):
    # a model read from a file meets the `is one` shortcuts of linalg
    m = parse_model(str(MODELS_DIR / f"{name}.json"))
    one = Cyc.one(m.order)
    ones = [v for f in ("mult", "coprod", "antipode", "invol")
            for _, _, v in getattr(m, f).entries() if v == 1]
    assert ones and all(v is one for v in ones)
    # a rational written with its zero coefficients too
    doc = model_to_dict(m)
    doc["unit"] = [[0, ["1"] + ["0"] * (len(one.nums) - 1)]]
    assert model_from_dict(doc).unit.data[0] is one


def test_counit_and_antipode_are_optional(tmp_path):
    d = model_to_dict(builtin("taft3"))
    del d["counit"], d["antipode"]
    out = tmp_path / "bare.json"
    out.write_text(json.dumps(d))
    assert_same_model(parse_model(str(out)), builtin("taft3"))


def test_invalid_json_reports_line(tmp_path):
    out = tmp_path / "bad.json"
    out.write_text('{"name": "x",\n  "order": }')
    with pytest.raises(ParseError, match="line 2"):
        parse_model(str(out))


def test_missing_field_is_named():
    d = model_to_dict(builtin("c_z2"))
    del d["mult"]
    with pytest.raises(ParseError, match="'mult'"):
        model_from_dict(d)


def test_out_of_range_index_is_reported():
    d = model_to_dict(builtin("c_z2"))
    d["unit"] = [[5, ["1"]]]
    with pytest.raises(ParseError, match="out of range"):
        model_from_dict(d)


@pytest.mark.parametrize("where, named", [
    (("order",), "field 'order'"), (("dim",), "field 'dim'"),
    (("mult", 0, 1), "mult: in index True"),
    (("table", 0, 0), "field 'table'")],
    ids=["order", "dim", "map-index", "table-entry"])
def test_bool_is_not_an_integer(tmp_path, capsys, where, named):
    # bool is a subclass of int, so JSON true must be rejected explicitly
    path = tmp_path / "in.json"
    if where[0] == "table":
        d = table_to_dict(GroupTable.cyclic(2))
        argv = ["build-group", "--table", str(path), "--kind", "function",
                "-o", str(tmp_path / "out.json")]
    else:
        d = model_to_dict(builtin("c_z2"))
        argv = ["verify", str(path)]
    parent = d
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = True
    path.write_text(json.dumps(d))
    assert main(argv) == 2
    assert named in capsys.readouterr().err


def test_bad_rational_is_reported():
    d = model_to_dict(builtin("c_z2"))
    d["unit"] = [[0, ["1/0"]]]
    with pytest.raises(ParseError, match="bad rational"):
        model_from_dict(d)
    d["unit"] = [[0, ["zeta"]]]
    with pytest.raises(ParseError, match="bad rational"):
        model_from_dict(d)


def test_duplicate_entry_is_reported():
    d = model_to_dict(builtin("c_z2"))
    d["mult"] = d["mult"] + [d["mult"][0]]
    with pytest.raises(ParseError, match="duplicate"):
        model_from_dict(d)


def test_wrong_basis_length_is_reported():
    d = model_to_dict(builtin("c_z2"))
    d["basis"] = ["only_one"]
    with pytest.raises(ParseError, match="basis"):
        model_from_dict(d)


def test_table_round_trip(tmp_path):
    s3 = GroupTable.symmetric(3)
    out = tmp_path / "s3.json"
    emit_table(s3, str(out))
    again = parse_table(str(out))
    assert again.elements == s3.elements
    assert again.table == s3.table


def test_non_group_table_is_rejected(tmp_path):
    out = tmp_path / "notgroup.json"
    bad = {"name": "bad", "elements": ["e", "a"], "table": [[0, 1], [1, 1]]}
    out.write_text(json.dumps(bad))
    with pytest.raises(ModelError):
        parse_table(str(out))


def test_shipped_morphism_files_validate():
    source = parse_model(str(MODELS_DIR / "c_s3.json"))
    for mapfile, target_name in (("restrict_a3.json", "c_z3.json"),
                                 ("restrict_z2.json", "c_z2.json")):
        target = parse_model(str(MODELS_DIR / target_name))
        mor = parse_morphism(str(MODELS_DIR / mapfile), source, target)
        ensure(validate_morphism(mor))


def test_morphism_model_name_mismatch():
    source = parse_model(str(MODELS_DIR / "c_s3.json"))
    wrong = parse_model(str(MODELS_DIR / "c_z2.json"))
    with pytest.raises(ParseError, match="does not match"):
        parse_morphism(str(MODELS_DIR / "restrict_a3.json"), source, wrong)


def test_shipped_directory_is_complete():
    names = {p.name for p in MODELS_DIR.glob("*.json")}
    expected = {f"{n}.json" for n in SHIPPED} | {
        "restrict_a3.json", "restrict_z2.json", "s3_table.json"}
    assert names == expected


def test_report_is_written_as_before(tmp_path):
    """write_report goes through the one JSON writer and writes the text
    that ``json.dumps(report.to_dict(), indent=2)`` and a newline gave."""
    report = Report(
        title="subgroup a->b", meta={"source": "a", "target": "b"},
        records=[CheckRecord("a->b.dual.unital", "pi(1) = 1", "pass",
                             residual=0.0, wall_ms=1.23456),
                 CheckRecord("a->b.vaes.injective", "pi_hat has zero kernel",
                             "fail",
                             witness="kernel of pi_hat contains e_0 - e_1"),
                 CheckRecord("a->b.vaes.norm-transport",
                             "norms \u2016x\u2016 agree", "skip",
                             witness="mu != 1")])
    out = tmp_path / "report.json"
    write_report(report, str(out))
    assert out.read_text(encoding="utf-8") == REPORT_TEXT


REPORT_TEXT = """\
{
  "title": "subgroup a->b",
  "meta": {
    "source": "a",
    "target": "b"
  },
  "passed": 1,
  "failed": 1,
  "skipped": 1,
  "checks": [
    {
      "check_id": "a->b.dual.unital",
      "law": "pi(1) = 1",
      "status": "pass",
      "residual": 0.0,
      "tolerance": null,
      "witness": null,
      "wall_ms": 1.235
    },
    {
      "check_id": "a->b.vaes.injective",
      "law": "pi_hat has zero kernel",
      "status": "fail",
      "residual": null,
      "tolerance": null,
      "witness": "kernel of pi_hat contains e_0 - e_1",
      "wall_ms": 0.0
    },
    {
      "check_id": "a->b.vaes.norm-transport",
      "law": "norms \\u2016x\\u2016 agree",
      "status": "skip",
      "residual": null,
      "tolerance": null,
      "witness": "mu != 1",
      "wall_ms": 0.0
    }
  ]
}
"""
