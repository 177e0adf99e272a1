"""Site hom sets read off the source's presentation (generating points and
relations), against the propagation search and the filter over all maps
in conftest, its sizing guard, and the sites built without re-validating."""

import hashlib
import itertools
import json
import os
import random
from unittest import mock

import pytest
from hypothesis import given

from conftest import (NONASSOC, S4, SAMPLES, equivariant_filter, hom_search_oracle, maps_monoid,
                      transformation_monoid, transformation_monoids, write_monoid,
                      identity_hom)
from test_report_digests import FIXTURES, REPORTS
from galmon import actions, finset
from galmon.cli import parse_monoid, run
from galmon.finset import FinSet, SizingError
from galmon.galois import Subfunctor, invariants, stabilizer, stabilizer_via_end
from galmon.monoid import generators, submonoid
from galmon.actions import (ActionError, MAction, Site, canonical_site, coinduct,
                            default_site, hom_tuples, trivial_action)

S5 = maps_monoid(list(itertools.permutations(range(5))))


def orbit_sizes(X):
    return [len({row[p] for row in X.table}) for p in range(len(X.carrier))]


def two_copies(X):
    """The disjoint union of X with itself, points tagged a and b."""
    tags = [(x, t) for t in "ab" for x in X.carrier]
    return MAction(X.monoid, FinSet(x + t for x, t in tags),
                   {(a, x + t): X.apply(a, x) + t for a in X.monoid.elements for x, t in tags})


def assert_pairs_match_the_search(site, pairs):
    gens = [site.monoid.elements[g] for g in generators(site.monoid)]
    for i, j in pairs:
        assert list(site._filtered(i, j)) == hom_search_oracle(
            site.objects[i], site.objects[j], gens), (i, j)


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_default_site_homs_are_read_off_and_match_the_search(m):
    site = default_site(m)
    for X in site.objects:  # cyclic: one generating point, the first whose orbit is X
        assert X._presentation()[0] == (orbit_sizes(X).index(len(X.carrier)),)
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
            rows = dict(zip(S4.elements, Y.table))
            fixed = [y for y in range(len(Y.carrier))
                     if all(rows[h][y] == y for h in H[1:-1].split(","))]
            assert sorted(f[x0] for f in site._filtered(i, j)) == fixed


@given(transformation_monoids())
def test_non_cyclic_objects_are_read_off_and_match_the_search(drawn):
    m, act, _ = drawn
    two = trivial_action(m, FinSet(("p", "q")))
    site = canonical_site(m, "free+trivial+custom",
                          custom=[("X", act), ("P", two), ("XX", two_copies(act))])
    for i, X in enumerate(site.objects):
        points = X._presentation()[0]
        sizes = [orbit_sizes(X)[p] for p in points]
        assert sizes == sorted(sizes, reverse=True)
        assert (len(points) == 1) == (len(X.carrier) in orbit_sizes(X))
        for j, Y in enumerate(site.objects):
            if site._pair_is_lazy(i, j):
                continue  # every map, up to 8^8 of them, is iterated, never read off
            homs = list(site._filtered(i, j))
            gens = [m.elements[g] for g in generators(m)]
            assert homs == hom_search_oracle(X, Y) == hom_search_oracle(X, Y, gens)
            if len(Y.carrier) ** len(X.carrier) <= 4096:
                assert homs == equivariant_filter(X, Y)


def test_overlapping_orbits_are_tied_by_relations_across_generating_points():
    # c = (0,0,0) sends 1 and 2 to 0, so a map fixed by y0 = f(1) and y1 = f(2)
    # needs c.y0 = c.y1: both land in one copy, 2 * 3 * 3 maps, not 6 * 6
    m, X = transformation_monoid([(0, 0, 0)])
    Y = two_copies(X)
    assert X._presentation()[0] == (1, 2)
    homs = hom_tuples(X, Y)
    assert len(homs) == 18
    assert homs == equivariant_filter(X, Y) == hom_search_oracle(X, Y)


def test_site_and_coinduction_share_one_route():
    m, X = transformation_monoid([(0, 0, 0)])
    site = canonical_site(m, "free+custom", custom=[("X", X), ("XX", two_copies(X))])
    called = []

    def spy(M, N):
        called.append((M, N))
        return hom_tuples(M, N)

    with mock.patch.object(actions, "hom_tuples", spy):
        site._filtered(1, 2)
        coinduct(identity_hom(m), X)
    assert [N for _, N in called] == [site.objects[2], X]


def test_the_read_off_refuses_past_the_enumeration_limit(monkeypatch):
    # each generating point tries 3 values and writes 3 images: 6 at the
    # first, then 12 at the second, past the limit
    Z2 = SAMPLES["Z2"]
    E3 = trivial_action(Z2, FinSet(("0", "1", "2")))
    assert len(hom_tuples(E3, E3)) == 27
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 7)
    with pytest.raises(SizingError) as exc:
        hom_tuples(E3, E3)
    assert str(exc.value) == "actions: 12 candidate assignments exceed the limit of 7"


def read_off_only(M, N):
    """hom_tuples, refusing any source that is not cyclic: the read-off of
    one generating point, which searches no further generating point."""
    assert len(M._presentation()[0]) == 1, "a default site searched"
    return hom_tuples(M, N)


def stdout_of(argv, capsys):
    code = run(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("argv", ["laws --monoid s3.json --seed 3",
                                  "stab --monoid s3.json --sub a3_invariants.json"])
def test_pinned_default_site_reports_never_search(argv, capsys, monkeypatch):
    code, digest = next((c, d) for a, c, d in REPORTS if a == argv)
    monkeypatch.setattr(actions, "hom_tuples", read_off_only)
    args = [os.path.join(FIXTURES, w) if w.endswith(".json") else w for w in argv.split()]
    assert stdout_of(args, capsys) == (code, digest)


def no_hom_set(M, N):
    raise AssertionError("a hom set was derived")


@pytest.mark.parametrize("argv", [a for a, _, _ in REPORTS
                                  if a.split()[0] in ("laws", "stab") and "--site" not in a])
def test_default_site_laws_and_stab_derive_no_hom_set(argv, capsys, monkeypatch):
    # naturality, random closures and the end route read each object's base point
    code, digest = next((c, d) for a, c, d in REPORTS if a == argv)
    monkeypatch.setattr(actions, "hom_tuples", no_hom_set)
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
    with mock.patch.object(actions, "hom_tuples", hom_search_oracle):  # every hom set searched
        searched = [stdout_of(argv, capsys) for argv in commands]
    assert [code for code, _ in searched] == [0, 0]
    monkeypatch.setattr(actions, "hom_tuples", read_off_only)
    assert [stdout_of(argv, capsys) for argv in commands] == searched


@pytest.mark.parametrize("monoid, sub", [("s3.json", "a3_invariants.json"),
                                          ("s4.json", "s4_swap_invariants.json")])
def test_stab_derives_no_hom_set_out_of_an_object_v_misses(monoid, sub):
    with open(os.path.join(FIXTURES, monoid)) as fd:
        site = default_site(parse_monoid(json.load(fd)))
    with open(os.path.join(FIXTURES, sub)) as fd:
        V = Subfunctor(site, json.load(fd)["subsets"])
    # nor out of any other: every object of a default site is induced from its
    # base point's stabilizer, so naturality and the end's restriction read masks
    assert site._homs == {} and any(not V.component(name) for name in site.names)
    assert stabilizer_via_end(V).elements == stabilizer(V)[0].elements
    assert site._homs == {}


def test_site_skips_validating_builder_actions_only(monkeypatch):
    checked = []
    monkeypatch.setattr(actions, "validate_action", lambda M: checked.append(M) or [])
    site = default_site(S4)
    assert site.nobj == 31 and checked == []
    custom = MAction(S4, FinSet(("p",)), {(a, "p"): "p" for a in S4.elements})
    rows = MAction._trusted(S4, FinSet(("q",)), ((0,),) * len(S4))
    canonical_site(S4, "free+custom", custom=[("C", custom), ("R", rows)])
    assert checked == [custom, rows]


def test_builder_actions_are_checked_when_the_monoid_laws_fail():
    with pytest.raises(ActionError, match="site object 'F\\(1\\)' is not an action"):
        Site(NONASSOC, [("F(1)", actions.free_action(NONASSOC, FinSet(("*",))))])


def test_cosets_of_a_subset_that_is_no_subgroup_are_still_checked():
    # coset_action marks nothing built, and Site refuses these rows; a subset
    # without the unit, even one whose union with {e} is a subgroup, is
    # refused by coset_action itself
    Z4 = SAMPLES["Z4"]
    M = actions.coset_action(Z4, Z4.elements[:2])
    assert not M._built
    with pytest.raises(ActionError) as exc:
        Site(Z4, [("X", M)])
    assert str(exc.value) == ("site object 'X' is not an action: associativity fails at "
                              "(g, g, {e,g}): {g2,g3} vs {e,g}")
    for sub in (("g",), ("g2",), ("g2", "g")):
        with pytest.raises(ActionError) as exc:
            actions.coset_action(Z4, sub)
        assert str(exc.value) == ("coset action needs a subgroup; {%s} misses the unit e"
                                  % ",".join(sub))
