"""Site hom sets read off cyclic objects (Yoneda), against the propagation
search they replace, and the sites built without re-validating or
searching."""

import hashlib
import itertools
import json
import os
import random
from unittest import mock

import pytest
from hypothesis import given

from conftest import NONASSOC, S4, SAMPLES, maps_monoid, transformation_monoids, write_monoid
from test_report_digests import FIXTURES, REPORTS
from galmon import actions
from galmon.cli import run
from galmon.finset import FinSet
from galmon.galois import invariants
from galmon.monoid import generators, submonoid
from galmon.actions import (ActionError, MAction, Site, canonical_site, default_site,
                            trivial_action, _equivariant_tuples)

S5 = maps_monoid(list(itertools.permutations(range(5))))


def is_cyclic(X):
    """Some point's orbit is the whole carrier."""
    n = len(X.carrier)
    return any(len({row[p] for row in X.table.values()}) == n for p in range(n))


def assert_pairs_match_the_search(site, pairs):
    gens = generators(site.monoid)
    for i, j in pairs:
        assert site._filtered(i, j) == tuple(
            _equivariant_tuples(site.objects[i], site.objects[j], gens)), (i, j)


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_default_site_homs_are_read_off_and_match_the_search(m):
    site = default_site(m)
    assert all(X._yoneda() is not None for X in site.objects)
    assert_pairs_match_the_search(site, itertools.product(range(site.nobj), repeat=2))


def test_s5_default_site_homs_match_the_search_on_a_sample():
    site = default_site(S5)
    assert site.nobj == 157
    pairs = list(itertools.product(range(site.nobj), repeat=2))
    assert_pairs_match_the_search(site, random.Random(16).sample(pairs, 2000))


def test_read_off_of_a_coset_object_is_the_fixed_points():
    # a map G/H -> Y is fixed by its value at the coset H, a point Y^H
    site = default_site(S4)
    for i, (name, X) in enumerate(zip(site.names, site.objects)):
        if not name.startswith("G/"):
            continue
        H = name[2:]
        x0 = X.carrier.index(H)
        for j, Y in enumerate(site.objects):
            fixed = [y for y in range(len(Y.carrier))
                     if all(Y.table[h][y] == y for h in H[1:-1].split(","))]
            assert sorted(f[x0] for f in site._filtered(i, j)) == fixed


@given(transformation_monoids())
def test_non_cyclic_objects_take_the_search_and_both_routes_agree(drawn):
    m, act, _ = drawn
    two = trivial_action(m, FinSet(("p", "q")))
    site = canonical_site(m, "free+trivial+custom", custom=[("X", act), ("P", two)])
    searched = []

    def spy(M, N, gens=None):
        searched.append(M)
        return _equivariant_tuples(M, N, gens)

    with mock.patch.object(actions, "_equivariant_tuples", spy):
        homs = {(i, j): site._filtered(i, j)
                for i, j in itertools.product(range(site.nobj), repeat=2)}
    assert two._yoneda() is None
    for i, X in enumerate(site.objects):
        assert (X._yoneda() is not None) == is_cyclic(X)
        assert sum(M is X for M in searched) == (0 if is_cyclic(X) else site.nobj)
        for j, Y in enumerate(site.objects):
            assert homs[(i, j)] == tuple(_equivariant_tuples(X, Y, generators(m)))
            assert homs[(i, j)] == tuple(_equivariant_tuples(X, Y))


def no_search(*args, **kwargs):
    raise AssertionError("a default site searched for its hom sets")


def stdout_of(argv, capsys):
    code = run(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("argv", ["laws --monoid s3.json --seed 3",
                                  "stab --monoid s3.json --sub a3_invariants.json"])
def test_pinned_default_site_reports_never_search(argv, capsys, monkeypatch):
    code, digest = next((c, d) for a, c, d in REPORTS if a == argv)
    monkeypatch.setattr(actions, "_equivariant_tuples", no_search)
    args = [os.path.join(FIXTURES, w) if w.endswith(".json") else w for w in argv.split()]
    assert stdout_of(args, capsys) == (code, digest)


def test_s4_laws_and_stab_never_search(tmp_path, capsys, monkeypatch):
    monoid = str(tmp_path / "s4.json")
    sub = str(tmp_path / "sub.json")
    write_monoid(monoid, S4)
    _, incl = submonoid(S4, [S4.unit, "t1032"])
    with open(sub, "w") as fd:
        json.dump({"subsets": invariants(incl, default_site(S4)).as_dict()}, fd)
    commands = [["laws", "--monoid", monoid], ["stab", "--monoid", monoid, "--sub", sub]]
    with mock.patch.object(MAction, "_yoneda", lambda X: None):  # every hom set searched
        searched = [stdout_of(argv, capsys) for argv in commands]
    assert [code for code, _ in searched] == [0, 0]
    monkeypatch.setattr(actions, "_equivariant_tuples", no_search)
    assert [stdout_of(argv, capsys) for argv in commands] == searched


def test_site_skips_validating_builder_actions_only(monkeypatch):
    checked = []
    monkeypatch.setattr(actions, "validate_action", lambda M: checked.append(M) or [])
    site = default_site(S4)
    assert site.nobj == 31 and checked == []
    custom = MAction(S4, FinSet(("p",)), {(a, "p"): "p" for a in S4.elements})
    rows = MAction._trusted(S4, FinSet(("q",)), dict.fromkeys(S4.elements, (0,)))
    canonical_site(S4, "free+custom", custom=[("C", custom), ("R", rows)])
    assert checked == [custom, rows]


def test_builder_actions_are_checked_when_the_monoid_laws_fail():
    with pytest.raises(ActionError, match="site object 'F\\(1\\)' is not an action"):
        Site(NONASSOC, [("F(1)", actions.free_action(NONASSOC, FinSet(("*",))))])


def test_cosets_of_a_subset_that_is_no_subgroup_are_still_checked():
    Z4 = SAMPLES["Z4"]
    with pytest.raises(ActionError, match="site object 'X' is not an action"):
        Site(Z4, [("X", actions.coset_action(Z4, Z4.elements[:2]))])
