import contextlib
import io
import itertools
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from conftest import (NONASSOC, S4, assert_checked, band_monoids, formula_monoid,
                      fusion_morphism, identity_hom, is_bijection, is_subgroup_oracle, maps_monoid,
                      submonoids_oracle, transformation_monoids, write_monoid)
from conftest import SAMPLES as SAMPLE_MONOIDS
from galmon.actions import default_site
from galmon.cli import run
from galmon.finset import FinSet, SizingError
from galmon.monoid import (Monoid, MonoidHom, MonoidError, NotHopfError,
                           validate_monoid, trivial_monoid, submonoid,
                           enumerate_submonoids, enumerate_subgroups,
                           hopf_witness, is_hopf, antipode,
                           kernel_pairs, submonoid_tuples, submonoid_generators,
                           is_subgroup, laws_hold)
from galmon.galois import connection_law_failures, galois_correspondence
from galmon import finset, monoid, samples

Z2 = samples.cyclic(2)
Z3 = samples.cyclic(3)
Z4 = samples.cyclic(4)
E2 = samples.idempotent_pair()
S3 = samples.symmetric3()

ALL_SMALL = samples.groups_up_to_order_6() + samples.nongroup_monoids()


def test_validate_good_tables():
    for m in ALL_SMALL:
        assert validate_monoid(m) == []


def test_validate_names_violations():
    # left-zero "multiplication" with a fake unit: unit law fails at g
    bad = Monoid(FinSet(("e", "g")), "e",
                 {("e", "e"): "e", ("e", "g"): "e",
                  ("g", "e"): "g", ("g", "g"): "g"})
    report = validate_monoid(bad)
    assert report and "g" in report[0]
    # subtraction-like table breaks associativity
    sub = Monoid(FinSet(("a", "b", "e")), "e",
                 {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
                  ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "b",
                  ("b", "e"): "b", ("b", "a"): "b", ("b", "b"): "a"})
    report = validate_monoid(sub)
    assert any("associat" in line for line in report)


def test_monoid_table_shape_errors():
    for table, unit, message in [
            ({("e", "e"): "e"}, "x", "unit 'x' is not in the carrier"),
            ({("e", "e"): "e"}, "e", "table missing entry for (e, g)"),
            ({("e", "e"): "g", ("e", "g"): "z"}, "e", "product e*g = 'z' lies outside the carrier"),
            (dict.fromkeys(itertools.product("eg", "egz"), "e"), "e",
             "table mentions ('e', 'z') outside the carrier")]:
        with pytest.raises(MonoidError) as exc:
            Monoid(FinSet(("e", "g")), unit, table)
        assert str(exc.value) == message


def test_inverse():
    assert Z4.inverse("g") == "g3"
    assert Z4.inverse("g2") == "g2"
    assert E2.inverse("z") is None


def test_submonoid_counts():
    assert len(enumerate_submonoids(trivial_monoid())) == 1
    assert len(enumerate_submonoids(Z2)) == 2
    assert len(enumerate_submonoids(S3)) == 6
    assert len(enumerate_submonoids(E2)) == 2


def test_subgroup_counts():
    assert [S.elements for S, _ in enumerate_subgroups(Z4)] == [
        ("e",), ("e", "g2"), ("e", "g", "g2", "g3")]
    assert len(enumerate_subgroups(S3)) == 6
    assert [S.elements for S, _ in enumerate_subgroups(E2)] == [("e",)]


def test_submonoids_ordered_and_intersection_closed():
    for m in [Z4, S3, E2, samples.nilpotent3()]:
        subs = [set(S.elements) for S, _ in enumerate_submonoids(m)]
        sizes = [len(s) for s in subs]
        assert sizes == sorted(sizes)
        for a, b in itertools.combinations(subs, 2):
            assert (a & b) in subs


def test_submonoid_errors():
    with pytest.raises(MonoidError) as exc:
        submonoid(S3, ("(12)", "(13)"))
    assert str(exc.value) == "submonoid must contain the unit"
    with pytest.raises(MonoidError) as exc:
        submonoid(S3, ("e", "(12)", "(13)"))
    assert str(exc.value) == "subset not closed: (12)*(13) = (132) escapes"


def test_submonoid_rejects_an_element_outside_the_monoid():
    # checked before the unit and closure checks, which would look it up
    for subset, outside in [(["e", "x"], "x"), (["x", "(12)"], "x"), (["e", "(12)", "g"], "g")]:
        with pytest.raises(MonoidError) as exc:
            submonoid(S3, subset)
        assert str(exc.value) == "submonoid element %r is not in the monoid" % outside


def test_submonoid_rejects_a_repeated_element():
    for subset, repeated in [(["e", "e"], "e"), (["(12)", "e", "(12)"], "(12)")]:
        with pytest.raises(MonoidError) as exc:
            submonoid(S3, subset)
        assert str(exc.value) == "submonoid element %r is repeated" % repeated


@pytest.mark.parametrize("m", list(SAMPLE_MONOIDS.values()) + [S4],
                         ids=list(SAMPLE_MONOIDS) + ["S4"])
def test_submonoid_equals_the_checked_construction(m):
    for S, incl in enumerate_submonoids(m):
        assert_checked(S, {(a, b): m.mul(a, b) for a in S.elements for b in S.elements})
        assert incl == MonoidHom(S, m, {a: a for a in S.elements})


SAMPLES = dict(zip(
    ["1", "Z2", "Z3", "Z4", "V4", "Z5", "Z6", "S3", "E2", "LZ2", "RZ2", "N3", "M3", "M4",
     "Z8", "M8", "M12", "LZ6", "RZ6"],
    ALL_SMALL + [samples.cyclic(8), samples.mult_mod(8), samples.mult_mod(12),
                 samples.left_zero_with_unit(6), samples.right_zero_with_unit(6)]))


def subgroups_report(m):
    """The `subgroups` report on m, through a monoid file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        write_monoid(path, m)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["subgroups", "--monoid", path]) == 0
    return json.loads(out.getvalue())


def agree_with_submonoids_oracle(m):
    expected = submonoids_oracle(m)
    groups = [s for s in expected if hopf_witness(submonoid(m, s)[0]) is None]
    assert [S.elements for S, _ in enumerate_submonoids(m)] == expected
    assert [S.elements for S, _ in enumerate_subgroups(m)] == groups
    report = subgroups_report(m)
    assert report["submonoids"] == [list(s) for s in expected]
    assert report["subgroups"] == [list(s) for s in groups]


@pytest.mark.parametrize("m", SAMPLES.values(), ids=SAMPLES.keys())
def test_submonoids_match_the_oracle_on_samples(m):
    agree_with_submonoids_oracle(m)


@given(transformation_monoids())
def test_submonoids_match_the_oracle_on_transformation_monoids(drawn):
    m = drawn[0]
    # Past this order a drawn monoid can have tens of thousands of
    # submonoids (88 873 at order 48), which neither side lists quickly.
    assume(len(m) <= 24)
    agree_with_submonoids_oracle(m)


def test_submonoids_are_enumerated_once_per_monoid(monkeypatch):
    # the coset site, the correspondence sweep and the law check all list
    # the submonoids of m; only the first closes any.  The enumeration's
    # closures pass a floor, while those of `generators` do not.
    m = samples.symmetric3()
    laws_hold(m)  # its generating set and laws are read off the table too
    floors = []
    close = monoid._close
    monkeypatch.setattr(monoid, "_close",
                        lambda *args: floors.append(len(args) > 4) or close(*args))
    first = submonoid_tuples(m)
    assert any(floors) and first == submonoids_oracle(m)
    first.clear()
    floors.clear()
    site = default_site(m)
    galois_correspondence(m, site)
    connection_law_failures(m, site)
    assert submonoid_tuples(m) == submonoids_oracle(m)
    assert not any(floors)


def dihedral(n):
    rotations = [tuple((p + k) % n for p in range(n)) for k in range(n)]
    return maps_monoid(rotations + [tuple((k - p) % n for p in range(n)) for k in range(n)])


@pytest.mark.parametrize("m", [samples.mult_mod(16), dihedral(10)], ids=["M16", "D10"])
def test_closures_cut_short_keep_every_submonoid(m, monkeypatch):
    # most extensions stop once an element below the adjoined one would join
    close, cut = monoid._close, []

    def counted(*args):
        closed, new, made = close(*args)
        cut.append(closed is None)
        return closed, new, made

    monkeypatch.setattr(monoid, "_close", counted)
    assert submonoid_tuples(m) == submonoids_oracle(m)
    assert sum(cut) > len(cut) // 2


@pytest.mark.parametrize("make", [lambda: samples.mult_mod(16), lambda: dihedral(10),
                                  lambda: maps_monoid(list(itertools.permutations(range(4))))],
                         ids=["M16", "D10", "S4"])
def test_closures_count_the_products_they_make(make, monkeypatch):
    # each row lookup of the multiplication table is one product
    close, counts = monoid._close, []

    def tallied(mul, *args):
        looked_up = []

        class Row(list):
            def __getitem__(self, i):
                looked_up.append(i)
                return list.__getitem__(self, i)

        closed, new, made = close([Row(row) for row in mul], *args)
        counts.append((closed is None, made, len(looked_up)))
        return closed, new, made

    monkeypatch.setattr(monoid, "_close", tallied)
    submonoid_tuples(make())
    assert any(cut for cut, _, _ in counts) and not all(cut for cut, _, _ in counts)
    assert [made for _, made, _ in counts] == [looked for _, _, looked in counts]


def extensions(m):
    """The element names of m in reverse; every extension that
    prefix-preserving closure extension tries on m, as (mask, members, gens,
    a) over those indices with what `_close` returns on it, every one closed
    by `_close` and none listed a subtree at a time; and the submonoids it
    reaches, as a dict from mask to the mask of the generators adjoined."""
    elems = m.elements[::-1]
    n = len(elems)
    mul = [[n - 1 - c for c in reversed(row)] for row in reversed(m.table)]
    unit = elems.index(m.unit)
    out, gmasks, stack = [], {}, [(1 << unit, [unit], (), 0, -1)]
    while stack:
        mask, members, gens, gmask, core = stack.pop()
        gmasks[mask] = gmask
        for a in range(core + 1, n):
            if not mask >> a & 1:
                closed, new, made = monoid._close(mul, mask, members, gens + (a,), a)
                out.append(((mask, members, gens, a), (closed, new, made)))
                if closed is not None:
                    stack.append((closed, members + new, gens + (a,), gmask | 1 << a, a))
    return elems, out, gmasks


def closes_by_itself(m, elems, mask, members, gens, a):
    """a is an idempotent with s*a in {s, a} for each member s and a*g in
    {a, g} for each generator g, by element names."""
    x = elems[a]
    return (m.mul(x, x) == x and all(m.mul(elems[s], x) in (elems[s], x) for s in members)
            and all(m.mul(x, elems[g]) in (x, elems[g]) for g in gens))


def fresh(m):
    """m with nothing computed on it yet but its laws' verdict."""
    copy = Monoid._trusted(m.carrier, m.unit, m.table)
    laws_hold(copy)  # its generating set is closed by _close too
    return copy


def listing_closes(m):
    """The submonoids of a fresh copy of m and the calls to _close made
    while they were listed."""
    copy = fresh(m)
    with mock.patch.object(monoid, "_close", wraps=monoid._close) as close:
        return submonoid_tuples(copy), close.call_count


@given(band_monoids())
def test_idempotent_extensions_are_closed_as_close_closes_them(m):
    elems, walked, _ = extensions(m)
    by_itself = [(ext, got) for ext, got in walked if closes_by_itself(m, elems, *ext)]
    for (mask, members, gens, a), got in by_itself:
        assert got == (mask | 1 << a, [a], len(members) + len(gens) + 1)
    # the listing closes exactly the other extensions (what it charges for
    # all of them is checked with the subtree steps below)
    subs, calls = listing_closes(m)
    assert subs == submonoids_oracle(m)
    assert calls == len(walked) - len(by_itself)


def lists_as_the_walk_lists(m):
    """The listing, which takes a subtree of extensions that each close by
    themselves in one step, finds the submonoids, generators and closure
    products of the walk that takes every extension one at a time."""
    elems, walked, gmasks = extensions(m)
    copy = fresh(m)
    subs = submonoid_tuples(copy)
    assert subs == submonoids_oracle(m)
    assert submonoid_generators(copy) == tuple(
        gmasks[sum(1 << elems.index(a) for a in s)] for s in subs)
    total = sum(made for _, (_, _, made) in walked)
    with mock.patch.object(finset, "MAX_ENUMERATION", total):
        assert submonoid_tuples(fresh(m)) == subs
    if total:  # a listing that charges nothing has nothing to refuse
        with mock.patch.object(finset, "MAX_ENUMERATION", total - 1):
            with pytest.raises(SizingError) as exc:
                submonoid_tuples(fresh(m))
        assert str(exc.value) == ("monoid.enumerate_submonoids: %d closure products "
                                  "exceed the limit of %d" % (total, total - 1))


@given(band_monoids())
def test_subtree_steps_list_as_the_walk_lists_on_bands(m):
    lists_as_the_walk_lists(m)


@given(transformation_monoids())
def test_subtree_steps_list_as_the_walk_lists_on_transformation_monoids(drawn):
    assume(len(drawn[0]) <= 24)  # as in the oracle test above
    lists_as_the_walk_lists(drawn[0])


@pytest.mark.parametrize("make, count", [(lambda: samples.left_zero_with_unit(12), 4096),
                                         (lambda: S4, 30)], ids=["LZ13", "S4"])
def test_submonoids_are_refused_past_the_materialized_limit(make, count, monkeypatch):
    # one subtree step lists all of LZ13 at its limit; one below, it is walked
    monkeypatch.setattr(finset, "MAX_MATERIALIZED", count)
    assert len(submonoid_tuples(fresh(make()))) == count
    monkeypatch.setattr(finset, "MAX_MATERIALIZED", count - 1)
    with pytest.raises(SizingError) as exc:
        submonoid_tuples(fresh(make()))
    assert str(exc.value) == ("monoid.enumerate_submonoids: more than %d submonoids "
                              "exceed the limit of %d" % (count - 1, count - 1))


def test_a_unit_and_left_zeros_close_no_extension():
    m = samples.left_zero_with_unit(12)
    subs, calls = listing_closes(m)
    assert len(subs) == 4096 and calls == 0


# a and b are mutually inverse units, but a*a = a and b*b = b, so both are
# idempotents; (aa)b = e while a(ab) = a
MUTUAL_UNITS = Monoid(FinSet(("a", "b", "e")), "e",
                      {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
                       ("a", "e"): "a", ("a", "a"): "a", ("a", "b"): "e",
                       ("b", "e"): "b", ("b", "a"): "e", ("b", "b"): "b"})


@pytest.mark.parametrize("m", [NONASSOC, MUTUAL_UNITS], ids=["NONASSOC", "mutual-units"])
def test_tables_that_break_the_laws_close_every_extension(m):
    assert not laws_hold(m)
    _, walked, _ = extensions(m)
    subs, calls = listing_closes(m)
    assert subs == submonoids_oracle(m) and calls == len(walked)


def band_times_z2(zeros):
    """A unit and `zeros` left zeros, times Z2."""
    return formula_monoid([(p, i) for p in [None] + list(range(zeros)) for i in range(2)],
                          (None, 0), lambda p, q: (q[0] if p[0] is None else p[0],
                                                   (p[1] + q[1]) % 2))


def subsets_under_union(k):
    """The subsets of k points under union."""
    return formula_monoid([frozenset(c) for r in range(k + 1)
                           for c in itertools.combinations(range(k), r)],
                          frozenset(), frozenset.union)


# the closure products each listing makes, pinned before idempotent
# extensions stopped calling _close (the last two before a subtree of them
# was listed in one step, which covers part of each of their lattices):
# the least limit that lets it finish
CLOSURE_PRODUCTS = {
    "LZ13": (lambda: samples.left_zero_with_unit(12), 49152),
    "M16": (lambda: samples.mult_mod(16), 2411),
    "T3": (lambda: maps_monoid(list(itertools.product(range(3), repeat=3))), 21448),
    "S4": (lambda: maps_monoid(list(itertools.permutations(range(4)))), 1189),
    "D10": (lambda: dihedral(10), 657),
    "RZ11": (lambda: samples.right_zero_with_unit(10), 10240),
    "LZ7xZ2": (lambda: band_times_z2(6), 2405),
    "SUBSETS3": (lambda: subsets_under_union(3), 485)}


@pytest.mark.parametrize("name", list(CLOSURE_PRODUCTS))
def test_closure_products_are_pinned(name, monkeypatch):
    make, total = CLOSURE_PRODUCTS[name]
    monkeypatch.setattr(finset, "MAX_ENUMERATION", total)
    assert submonoid_tuples(make()) == submonoids_oracle(make())
    monkeypatch.setattr(finset, "MAX_ENUMERATION", total - 1)
    with pytest.raises(SizingError) as exc:
        submonoid_tuples(make())
    assert str(exc.value) == ("monoid.enumerate_submonoids: %d closure products exceed "
                              "the limit of %d" % (total, total - 1))


def test_s5_lists_each_of_its_156_subgroups_once():
    s5 = maps_monoid(list(itertools.permutations(range(5))))
    subs = submonoid_tuples(s5)
    assert len(subs) == len(set(subs)) == 156
    for s in subs:
        assert is_subgroup(s5, s)
        assert all(s5.mul(a, b) in s for a in s for b in s)


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [NONASSOC],
                         ids=list(SAMPLES) + ["NONASSOC"])
def test_hopf_by_rows_matches_fusion(m):
    assert is_hopf(m) == is_bijection(fusion_morphism(m))


@given(transformation_monoids())
def test_hopf_by_rows_matches_fusion_on_transformation_monoids(drawn):
    m = drawn[0]
    assume(len(m) <= 24)  # fusion lists |A|^2 pairs
    assert is_hopf(m) == is_bijection(fusion_morphism(m))


def agree_with_is_subgroup_oracle(m):
    for s in submonoid_tuples(m):
        assert is_subgroup(m, s) == is_subgroup_oracle(m, s)


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_is_subgroup_matches_the_pairwise_scan(m):
    agree_with_is_subgroup_oracle(m)


@given(transformation_monoids())
def test_is_subgroup_matches_the_pairwise_scan_on_transformation_monoids(drawn):
    m = drawn[0]
    assume(len(m) <= 24)  # as for the submonoid oracle above
    agree_with_is_subgroup_oracle(m)


def test_is_subgroup_on_non_associative_tables():
    agree_with_is_subgroup_oracle(NONASSOC)
    # a*a = a, so {e, a} is closed and a has no inverse in it
    units = MUTUAL_UNITS
    assert validate_monoid(units)
    assert submonoid_tuples(units) == [("e",), ("a", "e"), ("b", "e"), ("a", "b", "e")]
    assert [s for s in submonoid_tuples(units) if is_subgroup(units, s)] == [
        ("e",), ("a", "b", "e")]
    agree_with_is_subgroup_oracle(units)


def test_fusion_examples():
    t = fusion_morphism(trivial_monoid())
    assert t.assignment == {"(e,e)": "(e,e)"}
    f = fusion_morphism(Z2)
    assert f("(g,g)") == "(g,e)"
    g = fusion_morphism(E2)
    assert g("(z,e)") == "(z,z)" == g("(z,z)")
    assert not is_bijection(g)


def test_hopf_matches_invertibility():
    for m in ALL_SMALL:
        invertible = all(m.inverse(a) is not None for a in m.elements)
        assert is_hopf(m) == invertible
        assert (hopf_witness(m) is None) == invertible


def test_hopf_examples():
    assert is_hopf(Z2) and antipode(Z2) == (0, 1)
    assert Z3.elements[antipode(Z3)[Z3.carrier.index("g")]] == "g2"
    assert not is_hopf(E2) and hopf_witness(E2) == "z"


def test_antipode_laws():
    for m in samples.groups_up_to_order_6():
        s = dict(zip(m.elements, map(m.elements.__getitem__, antipode(m))))
        for a in m.elements:
            assert s[s[a]] == a
            for b in m.elements:
                assert s[m.mul(a, b)] == m.mul(s[b], s[a])


def test_antipode_refuses_nongroups():
    for m in samples.nongroup_monoids():
        with pytest.raises(NotHopfError):
            antipode(m)
    try:
        antipode(E2)
    except NotHopfError as exc:
        assert exc.witness == "z"


def test_hom_validation():
    MonoidHom(Z2, S3, {"e": "e", "g": "(12)"})
    with pytest.raises(MonoidError):
        MonoidHom(Z2, S3, {"e": "e", "g": "(123)"})  # g*g = e but (123)^2 != e
    with pytest.raises(MonoidError):
        MonoidHom(Z2, S3, {"e": "(12)", "g": "e"})  # unit not preserved


def test_hom_compose_identity():
    h = MonoidHom(Z2, Z4, {"e": "e", "g": "g2"})
    k = MonoidHom(Z4, Z2, {"e": "e", "g": "g", "g2": "e", "g3": "g"})
    # a hom is its index tuple, so composing homs composes tuples
    kh = tuple(map(k.images.__getitem__, h.images))
    assert kh == MonoidHom(Z2, Z2, {"e": "e", "g": "e"}).images == (0, 0)
    ident = identity_hom(Z2).images
    assert tuple(map(kh.__getitem__, ident)) == kh
    assert kernel_pairs(Z4.elements, k.images) == (("e", "g2"), ("g", "g3"))
    assert len(set(k.images)) < len(Z4) and len(set(h.images)) == len(Z2)


subsets_of_s3 = st.sets(st.sampled_from(S3.elements), max_size=6)


@given(subsets_of_s3)
def test_submonoid_enumeration_is_exactly_the_closed_subsets(subset):
    subset = set(subset) | {"e"}
    closed = all(S3.mul(a, b) in subset for a in subset for b in subset)
    listed = any(set(S.elements) == subset for S, _ in enumerate_submonoids(S3))
    assert listed == closed


@given(st.sampled_from(ALL_SMALL), st.data())
def test_mul_closed_and_lawful(m, data):
    a = data.draw(st.sampled_from(m.elements))
    b = data.draw(st.sampled_from(m.elements))
    c = data.draw(st.sampled_from(m.elements))
    assert m.mul(a, b) in m.carrier
    assert m.mul(m.mul(a, b), c) == m.mul(a, m.mul(b, c))
    assert m.mul(m.unit, a) == a == m.mul(a, m.unit)
