import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import (invariants_oracle, maps_monoid, products, submonoids_oracle,
                      transformation_monoid, write_monoid)
from galmon import cli, finset, samples
from galmon import report as writer
from galmon.actions import default_site
from galmon.cli import (COMMANDS, InputError, _corr_dot, _field, _hasse_edges,
                        _symbol, build_parser, parse_monoid, run)
from galmon.finset import FinSet
from galmon.galois import galois_correspondence
from galmon.monoid import Monoid, enumerate_submonoids

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


OPTIONS = ["--monoid", "m.json", "--action", "a.json", "--action", "b.json", "--site", "free",
           "--sub", "v.json", "--hom", "h.json", "--out", "dot", "--seed", "3"]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_parses_to_the_same_namespace(command):
    # the namespaces the per-command subparsers produced
    defaults = {"command": command, "monoid": None, "action": None, "site": "default",
                "sub": None, "hom": None, "out": "json", "seed": 0}
    given = {"command": command, "monoid": "m.json", "action": ["a.json", "b.json"],
             "site": "free", "sub": "v.json", "hom": "h.json", "out": "dot", "seed": 3}
    parser = build_parser()
    assert vars(parser.parse_args([command])) == defaults
    assert vars(parser.parse_args([command] + OPTIONS)) == given
    assert vars(parser.parse_args(OPTIONS + [command])) == given
    assert vars(parser.parse_args(OPTIONS[:6] + [command] + OPTIONS[6:])) == given


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, (_, doc) in COMMANDS.items():
        assert any(line.split() == [name] + doc.split() for line in lines), name


@pytest.mark.parametrize("argv", [["frobnicate", "--monoid", "m.json"], [], ["--seed", "3"],
                                  ["end", "--max-families", "10"]],
                         ids=["unknown", "missing", "options-only", "max-families"])
def test_bad_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_runs_build_no_parser(capsys, monkeypatch):
    # galmon.cli builds its one parser when it is imported
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    for _ in range(3):
        assert run_json(capsys, ["validate", "--monoid", fx("s3.json")])[0] == 0
    assert built == []


def test_runs_in_one_process_share_no_options(capsys):
    code, first = run_json(capsys, ["validate", "--monoid", fx("s3.json"),
                                    "--action", fx("s3_natural.json")])
    assert (code, list(first["actions"])) == (0, ["s3_natural"])
    with pytest.raises(SystemExit) as exc:
        run(["validate", "--out", "xml"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, doc = run_json(capsys, ["validate", "--monoid", fx("s3.json")])
    assert (code, doc) == (0, dict(first, actions={}))


def test_validate_ok(capsys):
    code, doc = run_json(capsys, ["validate", "--monoid", fx("s3.json"),
                                  "--action", fx("s3_natural.json")])
    assert code == 0
    assert doc["schema"] == "galmon/1"
    assert doc["violations"] == []
    assert doc["actions"]["s3_natural"]["violations"] == []


# a unit adjoined to a non-associative table
NONASSOC = {"elements": ["a", "b", "e"], "unit": "e",
            "table": {"e": {"e": "e", "a": "a", "b": "b"},
                      "a": {"e": "a", "a": "e", "b": "b"},
                      "b": {"e": "b", "a": "b", "b": "a"}}}


def test_validate_reports_axiom_violations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NONASSOC))
    code, doc = run_json(capsys, ["validate", "--monoid", str(path)])
    assert code == 1
    assert doc["violations"]


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_pins_an_invalid_monoid_with_actions(tmp_path, capsys):
    # a acts as the identity and b as a swap, which obeys every law of an
    # action; left multiplication does not, since the table does not associate
    swap = {"set": ["0", "1"], "act": {"e": {"0": "0", "1": "1"}, "a": {"0": "0", "1": "1"},
                                      "b": {"0": "1", "1": "0"}}}
    regular = {"set": ["a", "b", "e"], "act": NONASSOC["table"]}
    code = run(["validate", "--monoid", write_json(tmp_path / "bad.json", NONASSOC),
                "--action", write_json(tmp_path / "swap.json", swap),
                "--action", write_json(tmp_path / "regular.json", regular)])
    out = capsys.readouterr().out
    assert code == 1
    assert out == """{
  "actions": {
    "regular": {
      "set": [
        "a",
        "b",
        "e"
      ],
      "violations": [
        "associativity fails at (a, b, b): a vs e",
        "associativity fails at (b, b, a): e vs a"
      ]
    },
    "swap": {
      "set": [
        "0",
        "1"
      ],
      "violations": []
    }
  },
  "command": "validate",
  "monoid": {
    "elements": [
      "a",
      "b",
      "e"
    ],
    "unit": "e"
  },
  "schema": "galmon/1",
  "violations": [
    "associativity fails at (a, b, b): a vs e",
    "associativity fails at (b, b, a): e vs a"
  ]
}
"""


def test_inv_pins_a_hom_from_a_non_monoid(tmp_path, capsys):
    hom = {"src": NONASSOC, "map": {"a": "e", "b": "e", "e": "e"}}
    code = run(["inv", "--monoid", fx("s3.json"), "--hom", write_json(tmp_path / "hom.json", hom)])
    out = capsys.readouterr().out
    assert code == 1
    assert out == """{
  "error": "hom file src is not a monoid: associativity fails at (a, b, b): a vs e",
  "schema": "galmon/1"
}
"""


def test_custom_site_pins_an_object_that_is_not_an_action(tmp_path, capsys):
    nat = json.load(open(fx("s3_natural.json")))
    nat["act"]["(12)"] = {"1": "1", "2": "2", "3": "3"}
    write_json(tmp_path / "nat.json", nat)
    code = run(["inv", "--monoid", fx("s3.json"), "--site", "custom:%s" % tmp_path,
                "--hom", fx("a3_in_s3.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert out == """{
  "error": "site object 'nat' is not an action: associativity fails at ((12), (123), 1): 1 vs 2",
  "schema": "galmon/1"
}
"""


def test_end_refuses_an_object_that_is_not_an_action_before_building_an_end(
        tmp_path, capsys, monkeypatch):
    # the Site proves the action law once; the reconstruction map then relies on it
    def built(site):
        raise AssertionError("an end was built over a site that is not one")

    monkeypatch.setattr(cli, "end_of_forgetful", built)
    nat = json.load(open(fx("s3_natural.json")))
    nat["act"]["(12)"] = {"1": "1", "2": "2", "3": "3"}
    write_json(tmp_path / "nat.json", nat)
    code, out = run_json(capsys, ["end", "--monoid", fx("s3.json"),
                                  "--site", "free+custom:%s" % tmp_path])
    assert code == 1
    assert out["error"] == ("site object 'nat' is not an action: "
                            "associativity fails at ((12), (123), 1): 1 vs 2")


def test_validate_pins_an_unlawful_action_over_a_lawful_monoid(tmp_path, capsys):
    # e swaps 1 and 2, and (23) sends 1 to 2: the unit law fails at two
    # points, and the full scan lists every associativity failure after them
    nat = json.load(open(fx("s3_natural.json")))
    nat["act"]["e"] = {"1": "2", "2": "1", "3": "3"}
    nat["act"]["(23)"]["1"] = "2"
    code = run(["validate", "--monoid", fx("s3.json"),
                "--action", write_json(tmp_path / "nat.json", nat)])
    out = capsys.readouterr().out
    assert code == 1
    assert out == """{
  "actions": {
    "nat": {
      "set": [
        "1",
        "2",
        "3"
      ],
      "violations": [
        "unit fails: e.1 = 2",
        "unit fails: e.2 = 1",
        "associativity fails at ((12), (12), 1): 2 vs 1",
        "associativity fails at ((12), (12), 2): 1 vs 2",
        "associativity fails at ((12), (123), 1): 2 vs 1",
        "associativity fails at ((12), (23), 1): 2 vs 1",
        "associativity fails at ((12), e, 1): 2 vs 1",
        "associativity fails at ((12), e, 2): 1 vs 2",
        "associativity fails at ((123), (13), 1): 2 vs 1",
        "associativity fails at ((123), (132), 1): 2 vs 1",
        "associativity fails at ((123), (132), 2): 1 vs 2",
        "associativity fails at ((123), (23), 1): 2 vs 3",
        "associativity fails at ((123), e, 1): 2 vs 3",
        "associativity fails at ((123), e, 2): 3 vs 2",
        "associativity fails at ((13), (13), 1): 2 vs 1",
        "associativity fails at ((13), (13), 2): 1 vs 2",
        "associativity fails at ((13), (132), 1): 2 vs 1",
        "associativity fails at ((13), (23), 1): 3 vs 2",
        "associativity fails at ((13), e, 1): 3 vs 2",
        "associativity fails at ((13), e, 2): 2 vs 3",
        "associativity fails at ((132), (12), 1): 2 vs 1",
        "associativity fails at ((132), (123), 1): 2 vs 1",
        "associativity fails at ((132), (123), 2): 1 vs 2",
        "associativity fails at ((132), (23), 1): 3 vs 1",
        "associativity fails at ((132), e, 1): 3 vs 1",
        "associativity fails at ((132), e, 2): 1 vs 3",
        "associativity fails at ((23), (12), 2): 1 vs 2",
        "associativity fails at ((23), (123), 3): 1 vs 2",
        "associativity fails at ((23), (13), 3): 1 vs 2",
        "associativity fails at ((23), (132), 2): 1 vs 2",
        "associativity fails at ((23), (23), 1): 2 vs 3",
        "associativity fails at ((23), (23), 2): 1 vs 2",
        "associativity fails at ((23), e, 1): 2 vs 3",
        "associativity fails at ((23), e, 2): 3 vs 2",
        "associativity fails at (e, (12), 1): 2 vs 1",
        "associativity fails at (e, (12), 2): 1 vs 2",
        "associativity fails at (e, (123), 1): 2 vs 1",
        "associativity fails at (e, (123), 3): 1 vs 2",
        "associativity fails at (e, (13), 2): 2 vs 1",
        "associativity fails at (e, (13), 3): 1 vs 2",
        "associativity fails at (e, (132), 2): 1 vs 2",
        "associativity fails at (e, (132), 3): 2 vs 1",
        "associativity fails at (e, (23), 1): 2 vs 1",
        "associativity fails at (e, (23), 3): 2 vs 1",
        "associativity fails at (e, e, 1): 2 vs 1",
        "associativity fails at (e, e, 2): 1 vs 2"
      ]
    }
  },
  "command": "validate",
  "monoid": {
    "elements": [
      "(12)",
      "(123)",
      "(13)",
      "(132)",
      "(23)",
      "e"
    ],
    "unit": "e"
  },
  "schema": "galmon/1",
  "violations": []
}
"""


def test_schema_error_names_the_cell(tmp_path, capsys):
    doc = json.load(open(fx("z2.json")))
    del doc["table"]["g"]["e"]
    path = tmp_path / "z2broken.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, ["hopf", "--monoid", str(path)])
    assert code == 1
    assert "row 'g'" in out["error"] and "'e'" in out["error"]


DROP = object()  # an edit that deletes the cell


def put(doc, keys, value):
    """doc with the cell at the path keys replaced by value, or deleted
    when value is DROP."""
    if len(keys) == 1 and value is DROP:
        del doc[keys[0]]
    elif keys:
        doc[keys[0]] = put(doc[keys[0]], keys[1:], value)
    else:
        return value
    return doc


# case: (fixture, path to the cell, what replaces it, command, error); BAD
# stands for the corrupted file and S3 for the S3 monoid file
MALFORMED = {
    "elements": ("s3.json", ["elements", 1], ["x"], "hopf --monoid BAD",
                 'monoid file elements: ["x"] is not a symbol'),
    "table-cell": ("s3.json", ["table", "e", "(12)"], ["x"], "hopf --monoid BAD",
                   "monoid file table row 'e' column '(12)': [\"x\"] is not a symbol"),
    "action-image": ("s3_natural.json", ["act", "e", "1"], ["1"],
                     "validate --monoid S3 --action BAD",
                     "BAD act row 'e' column '1': [\"1\"] is not a symbol"),
    "action-carrier": ("s3_natural.json", ["set", 0], {"x": 1},
                       "end --monoid S3 --site custom --action BAD",
                       'BAD set: {"x": 1} is not a symbol'),
    "subset-member": ("a3_invariants.json", ["subsets", "F(1)"], [["(e,*)"]],
                      "stab --monoid S3 --sub BAD",
                      "subfunctor file subset 'F(1)': [\"(e,*)\"] is not a symbol"),
    "subset-mixed": ("a3_invariants.json", ["subsets", "F(1)"], ["(e,*)", 5],
                     "stab --monoid S3 --sub BAD", "element 5 is not in site object 'F(1)'"),
    "hom-image": ("a3_in_s3.json", ["map", "e"], ["e"], "inv --monoid S3 --hom BAD",
                  "hom file map 'e': [\"e\"] is not a symbol"),
    "top-level": ("s3.json", [], 5, "hopf --monoid BAD", "monoid file is missing 'elements'"),
    "action-row": ("s3_natural.json", ["act", "(12)"], DROP,
                   "validate --monoid S3 --action BAD", "BAD act is missing row '(12)'"),
    "action-row-shape": ("s3_natural.json", ["act", "(12)"], ["2", "1", "3"],
                         "validate --monoid S3 --action BAD",
                         "BAD act row '(12)' has the wrong shape"),
    "action-column": ("s3_natural.json", ["act", "(12)", "3"], DROP,
                      "end --monoid S3 --site custom --action BAD",
                      "BAD act row '(12)' is missing column '3'"),
    "subset-shape": ("a3_invariants.json", ["subsets", "F(1)"], "(e,*)",
                     "stab --monoid S3 --sub BAD",
                     "subfunctor file subset 'F(1)' has the wrong shape"),
    "hom-map": ("a3_in_s3.json", ["map", "(123)"], DROP, "inv --monoid S3 --hom BAD",
                "hom file map is missing '(123)'"),
    "monoid-laws": ("z2.json", ["table", "e", "g"], "e", "subgroups --monoid BAD",
                    "monoid file violates the laws: unit law fails: e*g = e"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_cell_gets_a_json_error(case, tmp_path, capsys):
    name, keys, value, command, error = MALFORMED[case]
    with open(fx(name)) as fd:
        bad = write_json(tmp_path / name, put(json.load(fd), keys, value))
    argv = [bad if w == "BAD" else fx("s3.json") if w == "S3" else w for w in command.split()]
    code, out = run_json(capsys, argv)
    assert code == 1
    assert out == {"schema": "galmon/1", "error": error.replace("BAD", bad)}


# case: edits to z2.json, each (path to a cell, what replaces it), and the
# error, None where the file still reads.  Every cell's shape is checked
# first, then that the elements are distinct, then the unit and the products
MONOID_FILE_ERRORS = {
    "row-before-unit": ([(["table", "g"], DROP), (["unit"], "x")],
                        "monoid file table is missing row 'g'"),
    "symbol-before-unit": ([(["unit"], "x"), (["table", "g", "e"], {"k": 1})],
                           "monoid file table row 'g' column 'e': {\"k\": 1} is not a symbol"),
    "column-before-product": ([(["table", "e", "g"], "z"), (["table", "g", "e"], DROP)],
                              "monoid file table row 'g' is missing column 'e'"),
    "shape-before-product": ([(["table", "e", "g"], "z"), (["table", "g"], ["e", "g"])],
                             "monoid file table row 'g' has the wrong shape"),
    "duplicate-before-product": ([(["elements", 2], "e"), (["table", "e", "g"], "z")],
                                 "duplicate element symbol 'e'"),
    "unit-before-product": ([(["unit"], "x"), (["table", "e", "g"], "z")],
                            "unit 'x' is not in the carrier"),
    "product": ([(["table", "g", "g"], "z")], "product g*g = 'z' lies outside the carrier"),
    "number-product": ([(["table", "g", "e"], 1)], "product g*e = 1 lies outside the carrier"),
    "extra-cells": ([(["table", "g", "z"], "q"), (["table", "z"], {})], None),
}


@pytest.mark.parametrize("case", list(MONOID_FILE_ERRORS))
def test_monoid_file_errors_come_in_their_order(case, tmp_path, capsys):
    edits, error = MONOID_FILE_ERRORS[case]
    with open(fx("z2.json")) as fd:
        doc = json.load(fd)
    for keys, value in edits:
        cell = doc
        for key in keys[:-1]:
            cell = cell[key]
        if value is DROP:
            del cell[keys[-1]]
        elif keys[-1] == len(cell):  # one past the end of a list
            cell.append(value)
        else:
            cell[keys[-1]] = value
    code, out = run_json(capsys, ["hopf", "--monoid", write_json(tmp_path / "m.json", doc)])
    assert (code, out.get("error")) == ((0, None) if error is None else (1, error))


def parse_monoid_scan_first(doc, where="monoid file"):
    """parse_monoid as it was before its fast path: every cell's shape is
    scanned before any construction."""
    elements = _field(doc, "elements", list, where)
    unit = _field(doc, "unit", str, where)
    rows = _field(doc, "table", dict, where)
    for a in elements:
        if _symbol(a, "%s elements", where) not in rows:
            raise InputError("%s table is missing row %r" % (where, a))
        row = rows[a]
        if not isinstance(row, dict):
            raise InputError("%s table row %r has the wrong shape" % (where, a))
        for b in elements:
            if _symbol(b, "%s elements", where) not in row:
                raise InputError("%s table row %r is missing column %r" % (where, a, b))
            _symbol(row[b], "%s table row %r column %r", where, a, b)
    return Monoid.from_rows(FinSet(elements), unit, rows)


def outcome(parse, doc):
    try:
        m = parse(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return m.carrier.elements, m.unit, m.table


CELL_VALUES = st.sampled_from([DROP, "e", "g", "z", "", 1, 2.5, None, True, ["x"], {"k": 1},
                               ["e", "g"], {}])


@given(st.lists(st.tuples(st.sampled_from(
    [["elements", 0], ["elements", 1], ["elements", 2], ["unit"], ["table"], ["table", "e"],
     ["table", "g"], ["table", "z"], ["table", "e", "e"], ["table", "e", "g"],
     ["table", "g", "e"], ["table", "g", "g"], ["table", "g", "z"]]), CELL_VALUES),
    max_size=3))
def test_parse_monoid_raises_what_the_scan_first_parse_raises(edits):
    with open(fx("z2.json")) as fd:
        doc = json.load(fd)
    for keys, value in edits:  # an edit whose path no longer exists is skipped
        cell, key = doc, keys[-1]
        for step in keys[:-1]:
            cell = cell.get(step) if isinstance(cell, dict) else None
        if isinstance(cell, list) and isinstance(key, int) and key < len(cell):
            cell.pop(key) if value is DROP else cell.__setitem__(key, value)
        elif isinstance(cell, dict) and isinstance(key, str):
            cell.pop(key, None) if value is DROP else cell.__setitem__(key, value)
    assert outcome(parse_monoid, doc) == outcome(parse_monoid_scan_first, doc)


def test_missing_required_flag(capsys):
    code, out = run_json(capsys, ["subgroups"])
    assert code == 1
    assert "--monoid" in out["error"]


def test_a_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"elements": [')
    code, out = run_json(capsys, ["hopf", "--monoid", str(path)])
    assert (code, out["error"]) == (
        1, "%s is not JSON: Expecting value: line 1 column 15 (char 14)" % path)


def test_unreadable_file(capsys):
    code, out = run_json(capsys, ["hopf", "--monoid", "/nonexistent.json"])
    assert code == 1
    assert "cannot read" in out["error"]


def test_hopf_witness(capsys):
    code, doc = run_json(capsys, ["hopf", "--monoid", fx("e2.json")])
    assert code == 0
    assert doc == {"schema": "galmon/1", "command": "hopf", "hopf": False,
                   "witness": "z", "antipode": None}


def test_hopf_antipode(capsys):
    code, doc = run_json(capsys, ["hopf", "--monoid", fx("z3.json")])
    assert code == 0
    assert doc["hopf"] and doc["antipode"] == {"e": "e", "g": "g2", "g2": "g"}


def test_subgroups(capsys):
    code, doc = run_json(capsys, ["subgroups", "--monoid", fx("z4.json")])
    assert code == 0
    assert doc["subgroups"] == [["e"], ["e", "g2"], ["e", "g", "g2", "g3"]]
    assert len(doc["submonoids"]) == 3


def test_inv_agrees(capsys):
    code, doc = run_json(capsys, ["inv", "--monoid", fx("s3.json"),
                                  "--hom", fx("a3_in_s3.json")])
    assert code == 0
    assert doc["agree"]
    assert doc["invariants"] == doc["oracle"]
    assert doc["invariants"]["G/{(123),(132),e}"] == [
        "{(12),(13),(23)}", "{(123),(132),e}"]


def test_stab_refuses_a_subfunctor_file_that_is_not_natural(tmp_path, capsys):
    sub = write_json(tmp_path / "sub.json", {"subsets": {"F(1)": ["(e,*)"], "E(1)": ["*"]}})
    code = run(["stab", "--monoid", fx("z2.json"), "--site", "free+trivial", "--sub", sub])
    out = capsys.readouterr().out
    assert code == 1
    assert out == """{
  "error": "not natural: a morphism 'F(1)' -> 'F(1)' moves '(e,*)' outside the subset",
  "schema": "galmon/1"
}
"""


def test_stab_agrees(capsys):
    code, doc = run_json(capsys, ["stab", "--monoid", fx("s3.json"),
                                  "--sub", fx("a3_invariants.json")])
    assert code == 0
    assert doc["agree"]
    assert doc["stabilizer"] == ["(123)", "(132)", "e"]


def test_end_reconstruction(capsys):
    code, doc = run_json(capsys, ["end", "--monoid", fx("z3.json"),
                                  "--site", "free"])
    assert code == 0
    assert doc["size"] == 3
    assert doc["reconstruction"]["isomorphism"]
    assert doc["reconstruction"]["kernel_pairs"] == []


def test_end_reconstruction_over_a_fixed_point_identifies_everything(capsys):
    code, doc = run_json(capsys, ["end", "--monoid", fx("z4.json"), "--site", "trivial"])
    assert code == 0
    assert doc["size"] == 1
    rec = doc["reconstruction"]
    assert not rec["injective"] and not rec["isomorphism"]
    pairs = itertools.combinations(["e", "g", "g2", "g3"], 2)
    assert rec["kernel_pairs"] == [list(p) for p in pairs]


def test_end_sizing_guard(capsys, monkeypatch):
    # S3 on its three points alone has 27 wedge families, which internal_nat
    # finds in 87 units of work; their 729 table cells are never composed
    argv = ["end", "--monoid", fx("s3.json"), "--site", "custom",
            "--action", fx("s3_natural.json")]
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 86)
    code, out = run_json(capsys, argv)
    assert code == 2
    assert out["error"] == "ends: 87 candidate assignments exceed the limit of 86"
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 87)
    code, doc = run_json(capsys, argv)
    assert code == 0 and doc["size"] == 27


def test_stab_sizing_guard(capsys, monkeypatch):
    # the default site's 6 * 24 table cells are counted before it is built,
    # and the end read off its free object counts the same 144 assignments
    argv = ["stab", "--monoid", fx("s3.json"), "--sub", fx("a3_invariants.json")]
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 143)
    code, out = run_json(capsys, argv)
    assert code == 2
    assert out["error"] == "actions.canonical_site: 144 table cells exceed the limit of 143"
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 144)
    code, doc = run_json(capsys, argv)
    assert code == 0 and doc["agree"] is True


@pytest.mark.parametrize("command", ["end", "stab"])
def test_a_zero_limit_refuses_the_first_guard(command, capsys, monkeypatch):
    # the coset objects of the default site list S3's submonoids first
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 0)
    code, out = run_json(capsys, [command, "--monoid", fx("s3.json"),
                                  "--sub", fx("a3_invariants.json")])
    assert code == 2
    assert out["error"] == ("monoid.enumerate_submonoids: 2 closure products exceed "
                            "the limit of 0")


@pytest.mark.parametrize("m", [samples.cyclic(8), samples.mult_mod(8)],
                         ids=["Z8", "M8"])
def test_end_and_stab_finish_at_order_8(m, tmp_path, capsys):
    path = tmp_path / "m.json"
    write_monoid(path, m)
    code, doc = run_json(capsys, ["end", "--monoid", str(path)])
    assert code == 0
    assert doc["size"] == len(m)
    assert doc["reconstruction"]["isomorphism"]
    site = default_site(m)
    subs = enumerate_submonoids(m)
    for k, (_, incl) in enumerate(subs):
        sub = tmp_path / ("inv%d.json" % k)
        sub.write_text(json.dumps({"subsets": invariants_oracle(incl, site).as_dict()}))
        code, doc = run_json(capsys, ["stab", "--monoid", str(path), "--sub", str(sub)])
        assert code == 0
        assert doc["agree"]
    code, doc = run_json(capsys, ["laws", "--monoid", str(path)])
    assert code == 0
    assert doc["ok"]
    code, doc = run_json(capsys, ["corr", "--monoid", str(path)])
    assert code == 0
    assert doc["bijective"]
    assert [row["invariants"] for row in doc["submonoids"]] == [
        invariants_oracle(incl, site).as_dict() for _, incl in subs]


def test_end_finishes_on_an_order_20_monoid(tmp_path, capsys):
    # fixing its free object's points in carrier order made over 10 million assignments
    path = tmp_path / "m.json"
    write_monoid(path, transformation_monoid([(1, 0, 1, 2), (0, 1, 1, 1), (2, 2, 3, 3)])[0])
    code, doc = run_json(capsys, ["end", "--monoid", str(path)])
    assert code == 0
    assert doc["size"] == 20


def test_corr_finishes_on_s4(tmp_path, capsys):
    path = tmp_path / "s4.json"
    write_monoid(path, maps_monoid(list(itertools.permutations(range(4)))))
    code, doc = run_json(capsys, ["corr", "--monoid", str(path)])
    assert code == 0
    assert doc["bijective"]
    assert len(doc["submonoids"]) == 30
    assert all(row["closed"] for row in doc["submonoids"])


def test_subgroups_on_t3_match_the_oracle(tmp_path, capsys):
    t3 = maps_monoid(list(itertools.product(range(3), repeat=3)))
    path = tmp_path / "t3.json"
    write_monoid(path, t3)
    code, doc = run_json(capsys, ["subgroups", "--monoid", str(path)])
    assert code == 0
    expected = submonoids_oracle(t3)
    assert len(expected) == 699
    assert doc["submonoids"] == [list(s) for s in expected]


def test_subgroups_refuses_past_the_submonoid_limit(tmp_path, capsys):
    m = samples.left_zero_with_unit(18)  # 2^18 submonoids
    path = tmp_path / "lz18.json"
    write_monoid(path, m)
    code, out = run_json(capsys, ["subgroups", "--monoid", str(path)])
    assert code == 2
    assert out["error"] == ("monoid.enumerate_submonoids: more than 100000 submonoids "
                            "exceed the limit of 100000")


def test_subgroups_lists_the_12012_submonoids_of_an_order_39_monoid(tmp_path, capsys):
    m, _ = transformation_monoid([(0, 0, 3, 2), (0, 2, 1, 1), (1, 3, 3, 3)])
    assert len(m) == 39
    path = tmp_path / "t39.json"
    write_monoid(path, m)
    code, doc = run_json(capsys, ["subgroups", "--monoid", str(path)])
    assert code == 0
    subs = [tuple(s) for s in doc["submonoids"]]
    assert len(subs) == len(set(subs)) == 12012
    assert subs == sorted(subs, key=lambda s: (len(s), s))
    table = products(m)
    for s in subs:
        inside = frozenset(s)
        assert list(s) == sorted(inside) and m.unit in inside
        assert all(table[(a, b)] in inside for a in s for b in s)


def test_subgroups_refuses_past_the_closure_product_limit(tmp_path, capsys):
    # Z2^7 x Z3 (order 384, 58 424 subgroups), whose closures make 10 M
    # products before they find 100 000 submonoids; they make 44.2 M in all
    names = {(b, k): "%s.%d" % (format(b, "07b"), k) for b in range(128) for k in range(3)}
    m = Monoid(FinSet(names.values()), names[(0, 0)],
               {(names[x], names[y]): names[(x[0] ^ y[0], (x[1] + y[1]) % 3)]
                for x in names for y in names})
    path = tmp_path / "z2_7z3.json"
    write_monoid(path, m)
    code, out = run_json(capsys, ["subgroups", "--monoid", str(path)])
    assert code == 2
    assert out["error"] == ("monoid.enumerate_submonoids: 10000001 closure products "
                            "exceed the limit of 10000000")


def test_s6_lists_its_1455_subgroups_and_its_default_site_is_refused(tmp_path, capsys):
    path = tmp_path / "s6.json"
    write_monoid(path, maps_monoid(list(itertools.permutations(range(6)))))
    code, doc = run_json(capsys, ["subgroups", "--monoid", str(path)])
    assert code == 0
    assert len(doc["submonoids"]) == len(doc["subgroups"]) == 1455
    code, out = run_json(capsys, ["corr", "--monoid", str(path)])
    assert code == 2
    assert out["error"] == ("actions.canonical_site: 120568320 table cells exceed "
                            "the limit of 10000000")


def test_laws(capsys):
    code, doc = run_json(capsys, ["laws", "--monoid", fx("e2.json"),
                                  "--seed", "3"])
    assert code == 0
    assert doc["ok"] and doc["failures"] == []
    assert doc["seed"] == 3
    assert len(doc["extra_subfunctors"]) == 3


def test_corr_report(capsys):
    code, doc = run_json(capsys, ["corr", "--monoid", fx("z4.json")])
    assert code == 0
    assert doc["bijective"] and doc["inclusion_reversing"]
    assert doc["closed_submonoids"] == [["e"], ["e", "g2"],
                                        ["e", "g", "g2", "g3"]]
    assert len(doc["bijection"]) == 3


def test_corr_dot(capsys):
    code = run(["corr", "--monoid", fx("z4.json"), "--out", "dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph correspondence {")
    assert "style=dashed" in out
    assert out.count("S0 ->") >= 1
    assert out.endswith("}\n")


def hasse_edges_oracle(keys, below):
    """Cover relations by testing every triple."""
    return [(a, b) for a in keys for b in keys
            if a != b and below(a, b)
            and not any(c not in (a, b) and below(a, c) and below(c, b) for c in keys)]


@pytest.mark.parametrize("maps", [list(itertools.permutations(range(4))),
                                  list(itertools.product(range(3), repeat=3))],
                         ids=["S4", "T3"])
def test_hasse_edges_match_every_triple(maps):
    m = maps_monoid(maps)
    report = galois_correspondence(m, default_site(m))
    subs = [tuple(s) for s in report["closed_submonoids"]]
    vs = report["closed_subfunctors"]
    orders = [("S", subs, lambda a, b: set(a) < set(b)),
              ("V", list(range(len(vs))),
               lambda i, j: vs[i] != vs[j] and all(set(vs[i][k]) <= set(vs[j][k])
                                                   for k in vs[i]))]
    dot = _corr_dot(report)
    for tag, keys, below in orders:
        expected = hasse_edges_oracle(keys, below)
        assert _hasse_edges(keys, below) == expected
        node = {k: n for n, k in enumerate(keys)}
        assert re.findall(r"^    (%s\d+ -> %s\d+);$" % (tag, tag), dot, re.M) == [
            "%s%d -> %s%d" % (tag, node[a], tag, node[b]) for a, b in expected]
        assert len(expected) >= len(keys) - 1


def test_coinduce_roundtrips_as_action_file(tmp_path, capsys):
    code, doc = run_json(capsys, ["coinduce", "--monoid", fx("s3.json"),
                                  "--hom", fx("z2_in_s3.json"),
                                  "--action", fx("z2_swap.json")])
    assert code == 0
    assert len(doc["set"]) == 8
    path = tmp_path / "coinduced.json"
    path.write_text(json.dumps(doc))
    code, doc2 = run_json(capsys, ["validate", "--monoid", fx("s3.json"),
                                   "--action", str(path)])
    assert code == 0
    assert doc2["actions"]["coinduced"]["violations"] == []


def test_custom_site(tmp_path, capsys):
    os.symlink(fx("s3_natural.json"), tmp_path / "nat.json")
    code, doc = run_json(capsys, ["inv", "--monoid", fx("s3.json"),
                                  "--site", "custom:%s" % tmp_path,
                                  "--hom", fx("a3_in_s3.json")])
    assert code == 0
    assert doc["site"] == ["nat"]
    code, out = run_json(capsys, ["inv", "--monoid", fx("s3.json"),
                                  "--site", "custom:/nonexistent",
                                  "--hom", fx("a3_in_s3.json")])
    assert code == 1
    assert "cannot list" in out["error"]


def test_action_files_join_a_custom_site(tmp_path, capsys):
    os.symlink(fx("s3_natural.json"), tmp_path / "nat.json")
    argv = ["inv", "--monoid", fx("s3.json"), "--hom", fx("a3_in_s3.json"),
            "--action", fx("s3_natural.json")]
    for site, names in [("free+custom", ["F(1)", "s3_natural"]),
                        ("custom:%s" % tmp_path, ["s3_natural", "nat"])]:
        code, doc = run_json(capsys, argv + ["--site", site])
        assert code == 0
        assert doc["site"] == names


def test_two_custom_directories_pool_into_one_site(tmp_path, capsys):
    for directory, name in [("d1", "a"), ("d2", "b")]:
        (tmp_path / directory).mkdir()
        os.symlink(fx("z2_swap.json"), tmp_path / directory / (name + ".json"))
    site = "custom:%s+custom:%s" % (tmp_path / "d1", tmp_path / "d2")
    code, doc = run_json(capsys, ["corr", "--monoid", fx("z2.json"), "--site", site])
    assert code == 0
    assert doc["site"] == ["a", "b"]


@pytest.mark.parametrize("command", ["inv", "stab", "end", "corr", "laws"])
def test_action_files_without_a_custom_site_are_refused(command, capsys):
    argv = [command, "--monoid", fx("s3.json"), "--hom", fx("a3_in_s3.json"),
            "--sub", fx("a3_invariants.json"), "--action", fx("s3_natural.json")]
    for site in ("default", "free+cosets"):
        code, out = run_json(capsys, argv + ["--site", site])
        assert code == 1
        assert out["error"] == "--action files need a custom or custom:<dir> token in --site"


def test_coinduce_takes_one_action_file(capsys):
    code, out = run_json(capsys, ["coinduce", "--monoid", fx("s3.json"),
                                  "--hom", fx("z2_in_s3.json"),
                                  "--action", fx("z2_swap.json"), "--action", fx("z2_swap.json")])
    assert code == 1
    assert out["error"] == "coinduce takes one --action file, not 2"


@pytest.mark.parametrize("act, violation", [
    # g is constant, so (gg).1 = 1 but g.(g.1) = 0
    ({"e": {"0": "0", "1": "1"}, "g": {"0": "0", "1": "0"}},
     "associativity fails at (g, g, 1): 1 vs 0"),
    ({"e": {"0": "1", "1": "0"}, "g": {"0": "0", "1": "1"}}, "unit fails: e.0 = 1")])
def test_coinduce_refuses_an_action_file_that_is_no_action(act, violation, tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fd:
        json.dump({"set": ["0", "1"], "act": act}, fd)
    code, out = run_json(capsys, ["coinduce", "--monoid", fx("s3.json"),
                                  "--hom", fx("z2_in_s3.json"), "--action", path])
    assert code == 1
    assert out["error"] == "%s is not an action: %s" % (path, violation)


def test_fixtures_regenerate_from_the_samples(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make", fx("make.py"))
    make = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make)
    monkeypatch.setattr(make, "HERE", str(tmp_path))
    make.main()
    written = sorted(os.listdir(tmp_path))
    assert written == sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))
    for name in written:
        with open(fx(name), "rb") as fd:
            assert (tmp_path / name).read_bytes() == fd.read(), name


@pytest.mark.parametrize("key, image, error", [
    ("g", "(123)", "hom breaks multiplicativity at (g, g)"),
    ("e", "(12)", "hom sends unit to '(12)'"),
    ("g", "(1234)", "image '(1234)' of 'g' lies outside the codomain"),
    ("g", None, "hom file map is missing 'g'"),
], ids=["multiplicativity", "unit", "outside", "missing"])
def test_bad_hom_rejected(tmp_path, capsys, key, image, error):
    doc = json.load(open(fx("z2_in_s3.json")))
    if image is None:
        del doc["map"][key]
    else:
        doc["map"][key] = image
    path = tmp_path / "badhom.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, ["inv", "--monoid", fx("s3.json"),
                                  "--hom", str(path)])
    assert (code, out) == (1, {"schema": "galmon/1", "error": error})


def test_corr_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "galmon.cli", "corr",
           "--monoid", fx("s3.json")]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second
    assert json.loads(first)["schema"] == "galmon/1"


# strings with what JSON escapes: non-ASCII letters and symbols, '"' and '\\'
# (punctuation), control characters and lone surrogates
TEXT = st.text(st.characters(categories=["Lu", "Ll", "Po", "Sm", "Zs", "Cc", "Cs"]),
               max_size=6) | st.sampled_from(["", "\u00e9", 'a"\\b', "\u221e x", "\x00\x1f",
                                              "\ud800", "\udfff\ud83d"])
SCALARS = (TEXT | st.integers() | st.floats() | st.booleans() | st.none()
           | st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]))
# keys of one kind sort; keys of mixed kinds make json.dumps raise TypeError
KEYS = st.sampled_from([TEXT, st.integers() | st.floats() | st.booleans(), st.none(),
                        TEXT | st.integers() | st.none()])


STRINGS = st.lists(TEXT, max_size=3) | st.lists(TEXT, max_size=3).map(tuple)


def _containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.lists(TEXT, max_size=4) | st.lists(TEXT, max_size=4).map(tuple)
            | st.tuples(st.lists(TEXT, min_size=1, max_size=3), children).map(
                lambda p: p[0] + [p[1]])
            # arrays of arrays of strings: nonempty ones, some empty, a string,
            # a dict or another value among them, and three deep
            | st.lists(st.lists(TEXT, min_size=1, max_size=3), min_size=1, max_size=4)
            | st.lists(STRINGS, min_size=1, max_size=4)
            | st.lists(STRINGS | TEXT | st.dictionaries(TEXT, TEXT, max_size=2) | children,
                       min_size=1, max_size=4)
            | st.lists(st.lists(STRINGS, min_size=1, max_size=3), min_size=1, max_size=3)
            | KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)))


def written(value):
    """What write_report writes for value, through a StringIO."""
    buf = io.StringIO()
    writer.write_report(value, buf)
    return buf.getvalue()


def expected(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@given(st.recursive(SCALARS, _containers, max_leaves=24))
def test_dumps_writes_what_json_dumps_writes(value):
    try:
        text = expected(value)
    except TypeError as exc:
        with pytest.raises(TypeError) as got:
            written(value)
        assert str(got.value) == str(exc)
    else:
        assert written(value) == text


# every buffer, batch and write bound at its smallest: each piece goes out
# on its own, no dict stays buffered long enough to be reused, and arrays of
# string arrays are joined two at a time
TINY = {"CHUNK": 3, "_BIG": 1, "_PIECES": 1, "_BATCH": 2}


@contextlib.contextmanager
def bounds(tiny):
    saved = {name: getattr(writer, name) for name in TINY}
    if tiny:
        vars(writer).update(TINY)
    try:
        yield
    finally:
        vars(writer).update(saved)


@given(st.recursive(SCALARS, _containers, max_leaves=24))
def test_dumps_writes_the_same_text_in_tiny_pieces(value):
    try:
        text = expected(value)
    except TypeError:
        return
    with bounds(tiny=True):
        assert written(value) == text


class Name(str):
    pass


class Count(int):
    pass


def subclassed(base):
    """base as an instance of a subclass of its type."""
    return type("Sub" + type(base).__name__, (type(base),), {})(base)


SHARED = {"b": ["x", "y"], "a": {"k": [1, None]}}
NESTING = {"inner": SHARED, "n": 0}
UNIT = {"F(1)": ["(e,*)"], "G/{e}": []}


@pytest.mark.parametrize("tiny", [False, True], ids=["default-bounds", "tiny-bounds"])
@pytest.mark.parametrize("value", [
    [SHARED, SHARED], [SHARED, [SHARED], {"z": SHARED}], {"x": SHARED, "y": [SHARED]},
    [NESTING, NESTING, SHARED, {"o": NESTING}], [[UNIT, UNIT], [UNIT]],
    {1: True}, [True, 1, None, 0], {True: False, 2: -3, 1.5: None},
    [("a", "b"), ["c"], ("d",), [], ()], [["a"], ("b", "c")], ((), ("a",)),
    [["a"], ["b"], ["c", 1]], [["a"], ("b",), ["c"], [["d"]], ["e"]],
    [float("nan"), float("inf"), float("-inf"), -0.0, 1e300], {float("nan"): float("inf")},
    {"\u00e9": ["\u221e", 'a"\\b'], "k": ["\x00"]},
    [subclassed({"b": subclassed([Name("x"), Count(2)]), Name("a"): 1.5}),
     subclassed(("y",))]], ids=[
    "shared-same-indent", "shared-three-indents", "shared-two-indents", "shared-nesting-shared",
    "shared-in-arrays", "int-key", "scalars", "scalar-keys", "tuples-and-lists",
    "arrays-of-both", "tuple-of-tuples", "second-batch-fails", "third-batch-fails", "nan-inf",
    "nan-key", "escapes", "subclasses"])
def test_dumps_writes_shared_dicts_and_scalars_as_json_dumps_does(value, tiny):
    with bounds(tiny):
        assert written(value) == expected(value)


def test_dumps_walks_a_shared_dict_twice_per_indent(monkeypatch):
    walks = []

    def counted(items):
        walks.append(items)
        return sorted(items)

    monkeypatch.setattr(writer, "sorted", counted, raising=False)
    shared, once = {"b": ["x"], "a": 1}, {"c": 2}
    value = {"rows": [shared, shared, shared, once], "one": shared, "more": [shared]}
    assert written(value) == expected(value)
    # the top level, once, and shared: met at the indent of "rows" and
    # "more" four times, written twice and then as the text it kept, and
    # at that of "one" once
    assert len(walks) == 5


@pytest.mark.parametrize("value", [
    [["a"], ["b", "c"]], [("a",), ["b"]], [["a"], []], [[], ["a"]], [["a"], ()], [["a"], "b"],
    ["a", ["b"]], [["a"], {"k": "v"}], [["a", 1]], [["a"], [None]], [[["a"], ["b"]], [["c"]]],
    [[["a"], []]], [["\u00e9", 'a"\\b', "\ud800"]]])
def test_dumps_writes_arrays_of_arrays_as_json_dumps_does(value):
    assert written(value) == expected(value)


@pytest.mark.parametrize("value", [
    {"a": 1, 2: 1}, [[], {"x": {None: 0, "y": 0}}], {(0, 1): "pair"}, {"set": {1, 2}},
    [b"bytes"], object()], ids=["str-int", "nested-none-str", "tuple-key", "set",
                               "bytes", "object"])
def test_dumps_raises_where_json_dumps_raises(value):
    with pytest.raises(TypeError) as wanted:
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        written(value)
    assert str(got.value) == str(wanted.value)


class Sink:
    """A stream that counts what it is given and keeps none of it."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


@pytest.mark.parametrize("value", [
    ["\u00e9" * (1 << 14)] * 256, list(range(1 << 17)), {"k": [[str(i)] for i in range(1 << 15)]}],
    ids=["long-strings", "short-pieces", "string-arrays"])
def test_a_large_report_is_never_held_whole(value, monkeypatch):
    # 4 Mi characters that escape to 6 each, 131 072 pieces, and 32 768
    # string arrays, written with a bound of 64 Ki characters and a batch
    # of 1024 arrays
    monkeypatch.setattr(writer, "CHUNK", 1 << 16)
    monkeypatch.setattr(writer, "_BATCH", 1 << 10)
    size = len(expected(value))
    out = Sink()
    tracemalloc.start()
    try:
        writer.write_report(value, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.written == size and peak < size // 4


class Recorder:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("chunk", [None, 1 << 16], ids=["default-chunk", "64k-chunk"])
def test_reports_go_out_in_bounded_writes(chunk, monkeypatch):
    # the report is 561 117 characters, each family's label 10 119 of them
    if chunk:
        monkeypatch.setattr(writer, "CHUNK", chunk)
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert run(["end", "--monoid", fx("s4.json")]) == 0
    assert max(map(len, out.writes)) <= writer.CHUNK
    assert len(out.writes) > 1 or not chunk
    # the digest tests/test_report_digests.py pins for this command
    assert hashlib.sha256("".join(out.writes).encode()).hexdigest() == (
        "2ad756e9029073f20e83fe9ad69fd624311e01a2bf7c06f25ad0a2166d78f356")


@pytest.mark.parametrize("argv, code", [
    (["end", "--monoid", "s3.json", "--site", "free"], 2),
    (["end", "--monoid", "missing.json"], 1)], ids=["refused", "invalid"])
def test_an_error_report_is_one_object(argv, code, monkeypatch):
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 10)
    assert run([fx(w) if w.endswith(".json") else w for w in argv]) == code
    text = "".join(out.writes)
    assert text.endswith("}\n") and text.count("{") == 1
    assert sorted(json.loads(text)) == ["error", "schema"]


def count_calls(monkeypatch, names):
    """Wrap the named functions of galmon.monoid in every galmon module that
    binds them; each call adds one to its name in the returned counter,
    under "listing:" + name while submonoid_tuples runs."""
    import collections
    from galmon import monoid
    calls = collections.Counter()
    depth = [0]  # submonoid_tuples calls running

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[("listing:" if depth[0] else "") + name] += 1
            lists = name == "submonoid_tuples"
            depth[0] += lists
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= lists
        return wrapper

    for name in names:
        fn = getattr(monoid, name)
        wrapper = counted(name, fn)
        for module in [m for key, m in sys.modules.items() if key.startswith("galmon")]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


@pytest.mark.parametrize("command", ["corr", "laws"])
def test_sweeps_build_nothing_per_submonoid(command, tmp_path, capsys, monkeypatch):
    # corr on a unit with 16 left zeros once built a checked monoid and
    # re-derived the generators of each of its 65 536 submonoids
    t3 = tmp_path / "t3.json"
    write_monoid(t3, maps_monoid(list(itertools.product(range(3), repeat=3))))
    for path, order, listed in ((fx("lz6.json"), 7, 64), (str(t3), 27, 699)):
        calls = count_calls(monkeypatch, ["submonoid", "generators", "_close",
                                          "submonoid_tuples"])
        code, doc = run_json(capsys, [command, "--monoid", path])
        assert code == 0 and doc.get("ok", doc.get("bijective"))
        if command == "corr":
            assert len(doc["submonoids"]) == listed
        assert calls["submonoid"] == 0
        assert calls["generators"] <= 3  # of the monoid itself, kept on it
        assert calls["_close"] <= order  # closing the monoid's own generators
        assert calls["submonoid_tuples"] <= 3
