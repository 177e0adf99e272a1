import contextlib
import gc
import io
import itertools
import json
import os
import random
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (NONASSOC, S4, SAMPLES, T3, Z4_WORDS, augmentation_square_check,
                      band_monoids, correspondence_oracle, generated_inclusion, included,
                      invariants_oracle, law_failures_oracle, monoid_doc, point_sets,
                      reconstruction_composite_check, subfunctors_oracle,
                      transformation_monoids, identity_hom)
from galmon.cli import run
from galmon.ends import end_of_forgetful
from galmon.finset import FinSet, singleton
from galmon.monoid import MonoidHom, submonoid, trivial_monoid, enumerate_submonoids
from galmon.actions import (MAction, Site, trivial_action, free_action, canonical_site,
                            default_site)
from galmon import galois
from galmon.galois import (GaloisError, Subfunctor, _closure, _mask, _naturality_violation,
                           fixes, invariants,
                           stabilizer, stabilizer_via_end,
                           galois_correspondence, connection_laws,
                           connection_law_failures, random_subfunctor)
from galmon import samples

Z2 = samples.cyclic(2)
Z4 = samples.cyclic(4)
E2 = samples.idempotent_pair()
S3 = samples.symmetric3()
SWAP = samples.swap_action()
NAT3 = samples.natural_action3()
MONOIDS = {**SAMPLES, "S4": S4, "T3": T3}
DEFAULT_SITES = {name: default_site(m) for name, m in MONOIDS.items()}


def hom_from_subset(m, subset):
    _, incl = submonoid(m, subset)
    return incl


def s3_nat_site():
    return canonical_site(S3, "custom", custom=(("nat", NAT3),))


def test_subfunctor_validation():
    site = canonical_site(Z2, "free+trivial")
    V = Subfunctor(site, {"E(1)": ("*",)})
    assert V.component("F(1)") == ()
    with pytest.raises(GaloisError):
        Subfunctor(site, {"nosuch": ("*",)})
    with pytest.raises(GaloisError):
        Subfunctor(site, {"E(1)": ("zzz",)})
    with pytest.raises(GaloisError) as err:
        Subfunctor(site, {"F(1)": ("(e,*)",)})  # translation moves it
    assert "not natural" in str(err.value)


def test_subfunctor_order_and_extremes():
    site = canonical_site(Z2, "free+trivial")
    top = Subfunctor.full(site)
    bot = Subfunctor.empty(site)
    assert bot <= top and not top <= bot
    assert top.mask.bit_count() == 3 and bot.mask.bit_count() == 0
    assert top.as_dict() == {"F(1)": ["(e,*)", "(g,*)"], "E(1)": ["*"]}


def test_fixes_examples():
    site = canonical_site(Z2, "custom", custom=(("sw", SWAP),))
    whole = Subfunctor.full(site)
    one = trivial_monoid()
    assert fixes(MonoidHom(one, Z2, {"e": "e"}), whole)
    assert not fixes(identity_hom(Z2), whole)
    assert fixes(identity_hom(Z2), Subfunctor.empty(site))
    with pytest.raises(GaloisError):
        fixes(identity_hom(S3), whole)


def test_invariants_examples():
    site = s3_nat_site()
    assert invariants(identity_hom(S3), site).component("nat") == ()
    h = hom_from_subset(S3, ("e", "(12)"))
    assert invariants(h, site).component("nat") == ("3",)
    one = trivial_monoid()
    V = invariants(MonoidHom(one, S3, {"e": "e"}), site)
    assert V == Subfunctor.full(site)


def test_invariants_on_free_and_trivial_objects():
    site = canonical_site(Z2, "free+trivial")
    V = invariants(identity_hom(Z2), site)
    assert V.component("F(1)") == ()
    assert V.component("E(1)") == ("*",)


def test_invariants_match_oracle():
    for m, site in [(Z2, default_site(Z2)), (E2, default_site(E2)),
                    (S3, canonical_site(S3, "cosets")),
                    (S4, default_site(S4)), (S4, canonical_site(S4, "free+trivial"))]:
        for S, incl in enumerate_submonoids(m):
            assert invariants(incl, site) == invariants_oracle(incl, site)
    # homs that identify elements: the exponent is larger than the image
    one = trivial_monoid()
    sign = {a: "e" if a in ("e", "(123)", "(132)") else "g" for a in S3.elements}
    for h in [MonoidHom(Z4, Z2, {"e": "e", "g": "g", "g2": "e", "g3": "g"}),
              MonoidHom(S3, Z2, sign),
              MonoidHom(Z2, Z4, {"e": "e", "g": "e"}),
              MonoidHom(E2, one, {a: "e" for a in E2.elements}),
              # a source that fails its laws: b generates, and only g moves points
              MonoidHom(NONASSOC, Z2, {"a": "e", "b": "g", "e": "e"})]:
        for site in [default_site(h.dst), canonical_site(h.dst, "free+trivial")]:
            assert invariants(h, site) == invariants_oracle(h, site)


def test_fixes_its_own_invariants():
    site = default_site(Z4)
    for S, incl in enumerate_submonoids(Z4):
        assert fixes(incl, invariants(incl, site))


def test_invariants_universal():
    site = canonical_site(Z2, "free+trivial+custom", custom=(("sw", SWAP),))
    h = identity_hom(Z2)
    Inv = invariants(h, site)
    for V in subfunctors_oracle(site):
        if fixes(h, V):
            assert V <= Inv


def test_enumerate_subfunctors():
    site = canonical_site(Z2, "free+trivial")
    found = subfunctors_oracle(site)
    assert len(found) == 3
    assert found[0] == Subfunctor.empty(site)
    assert found[-1] == Subfunctor.full(site)


def naturality_oracle(site, comps):
    """Whether every morphism, each map of a pair of trivial actions
    included, keeps the chosen index sets inside one another."""
    return all(f[p] in comps[j]
               for i, j in itertools.product(range(site.nobj), repeat=2)
               for f in site.iter_hom_tuples(i, j)
               for p in comps[i])


def generated_oracle(site, comps):
    """The index sets comps closed under every morphism."""
    comps = [set(s) for s in comps]
    while not naturality_oracle(site, comps):
        for i, j in itertools.product(range(site.nobj), repeat=2):
            for f in site.iter_hom_tuples(i, j):
                comps[j] |= {f[p] for p in comps[i]}
    return comps


def as_mask(site, comps):
    """The mask of the index sets comps, one per site object."""
    return _mask(p in s for act, s in zip(site.objects, comps) for p in range(len(act.carrier)))


def closure_oracle(site, rng):
    """The seeds random_subfunctor draws from rng, closed under every morphism."""
    idxsets = generated_oracle(site, [{p for p in range(len(act.carrier)) if rng.random() < 0.4}
                                      for act in site.objects])
    return {name: tuple(act.carrier.elements[p] for p in sorted(s))
            for name, act, s in zip(site.names, site.objects, idxsets)}


def trivials_site(m, sizes, extra=()):
    return Site(m, [("T%d_%d" % (k, n), trivial_action(m, FinSet(str(p) for p in range(n))))
                    for k, n in enumerate(sizes)] + list(extra))


NATURALITY_SITES = [
    trivials_site(Z2, (0, 1, 2, 3), [("sw", SWAP), ("F(1)", free_action(Z2, singleton()))]),
    trivials_site(trivial_monoid(), (1, 2, 3, 3)),
    trivials_site(E2, (3, 2), [("F(1)", free_action(E2, singleton()))]),
]


@pytest.mark.parametrize("site", NATURALITY_SITES, ids=repr)
def test_naturality_check_matches_all_morphisms(site):
    sizes = [len(act.carrier) for act in site.objects]
    natural = 0
    for masks in itertools.product(*[range(2 ** n) for n in sizes]):
        comps = [{p for p in range(n) if mask >> p & 1} for n, mask in zip(sizes, masks)]
        verdict = naturality_oracle(site, comps)
        assert (_naturality_violation(site, comps) is None) == verdict
        natural += verdict
    assert natural == len(subfunctors_oracle(site))
    for seed in range(200):
        V = random_subfunctor(site, random.Random(seed))
        assert V.components == closure_oracle(site, random.Random(seed))


def assert_trusted_subfunctors_are_natural(m, site):
    """Every subfunctor the package builds without the naturality check
    passes it, and equals the checked construction in == and hash."""
    built = [invariants(incl, site) for _, incl in enumerate_submonoids(m)]
    built += [Subfunctor.full(site), Subfunctor.empty(site)]
    built += [random_subfunctor(site, random.Random(seed)) for seed in range(3)]
    for V in built:
        comps = [{act.carrier.index(x) for x in V.components[name]}
                 for name, act in zip(site.names, site.objects)]
        assert naturality_oracle(site, comps)
        C = Subfunctor(site, V.components)
        assert V == C and hash(V) == hash(C)


@pytest.mark.parametrize("m", list(SAMPLES.values()), ids=list(SAMPLES))
def test_trusted_subfunctors_on_default_sites(m):
    assert_trusted_subfunctors_are_natural(m, default_site(m))


@given(transformation_monoids())
def test_trusted_subfunctors_on_transformation_monoids(drawn):
    m, act, _ = drawn
    assume(len(m) <= 24)
    assert_trusted_subfunctors_are_natural(
        m, canonical_site(m, "free+trivial+custom", custom=[("X", act)]))


def test_enumerated_subfunctors_equal_checked_ones():
    # an 11-point site, so some index sets iterate out of order ({2, 9} as 9, 2)
    site = default_site(samples.left_zero_with_unit(9))
    found = subfunctors_oracle(site)
    assert len(found) > 3
    for V in found:
        C = Subfunctor(site, V.components)
        assert V == C and hash(V) == hash(C)


def test_correspondence_derives_no_hom_set():
    site = default_site(S4)
    assert galois_correspondence(S4, site)["bijective"]
    assert site._homs == {}


class AllSeeds:
    """An rng under which random_subfunctor seeds every point."""

    def random(self):
        return 0.0


@pytest.mark.parametrize("m", [S3, S4], ids=["S3", "S4"])
def test_every_point_derives_no_hom_set(m):
    # no morphism moves a point out of a full subset, so neither the
    # naturality check, the closure nor either stab route derives a hom set
    site = default_site(m)
    V = Subfunctor(site, {name: act.carrier.elements
                          for name, act in zip(site.names, site.objects)})
    assert V == Subfunctor.full(site) == random_subfunctor(site, AllSeeds())
    assert stabilizer(V)[0].elements == stabilizer_via_end(V).elements == (m.unit,)
    assert site._homs == {}


def test_not_natural_names_the_element_moved_out():
    site = trivials_site(Z2, (2,))
    with pytest.raises(GaloisError) as err:
        Subfunctor(site, {"T0_2": ("1",)})
    assert str(err.value) == ("not natural: a morphism 'T0_2' -> 'T0_2' moves '1' "
                              "outside the subset")


@pytest.mark.parametrize("names, message", [
    (("A", "B"), "not natural: a morphism 'B' -> 'A' moves '0' outside the subset"),
    (("B", "A"), "not natural: a morphism 'B' -> 'B' moves '1' outside the subset")])
def test_not_natural_names_the_first_of_several_escapes(names, message):
    # B's {0, 1} leaves along the map into A (both points) and along B's
    # 3-cycle (1 only); the first morphism in site order, then its first point
    one = trivial_monoid()
    site = Site(one, [(n, trivial_action(one, FinSet(("0", "1", "2")))) for n in names])
    with pytest.raises(GaloisError) as err:
        Subfunctor(site, {"B": ("0", "1")})
    assert str(err.value) == message


def test_not_natural_names_the_first_escape_in_carrier_order():
    # a frozenset of 2 and 9 iterates 9 first; the custom object's cycle
    # moves both out, and the message names 2
    one = trivial_monoid()
    points = FinSet(map(str, range(10)))
    X = MAction(one, points, {(one.unit, x): x for x in points})
    site = canonical_site(one, "custom", custom=[("X", X)])
    assert next(iter(frozenset((2, 9)))) == 9
    assert _naturality_violation(site, [frozenset((2, 9))]) == (0, 0, "2")
    with pytest.raises(GaloisError) as err:
        Subfunctor(site, {"X": ("9", "2")})
    assert str(err.value) == "not natural: a morphism 'X' -> 'X' moves '2' outside the subset"


def assert_masks_judge_as_the_scan_does(site, rng, rounds=8):
    """On index sets drawn at several densities, _closure gives the oracle's
    closure, and its verdict on them, on that closure and on the closure with
    one point flipped equals the ordered scan's.  Returns how many of the
    sets judged were natural and how many were not."""
    points = [(i, p) for i, act in enumerate(site.objects) for p in range(len(act.carrier))]
    counts = [0, 0]  # not natural, natural
    for _ in range(rounds):
        density = rng.choice((0.02, 0.1, 0.3, 0.6))
        drawn = [{p for p in range(len(act.carrier)) if rng.random() < density}
                 for act in site.objects]
        closed = generated_oracle(site, drawn)
        flipped = [set(s) for s in closed]
        i, p = rng.choice(points)
        flipped[i] ^= {p}
        for comps in (drawn, closed, flipped):
            generated = _closure(site, comps)
            assert generated == as_mask(site, generated_oracle(site, comps))
            verdict = generated == as_mask(site, comps)
            assert verdict == (_naturality_violation(site, comps) is None)
            counts[verdict] += 1
    return counts


@pytest.mark.parametrize("name", sorted(SAMPLES) + ["S4", "T3"])
@settings(max_examples=6)
@given(st.integers(0, 1 << 32))
def test_masks_judge_naturality_as_the_scan_does(name, seed):
    # every object of a default site is induced from its base point's stabilizer
    site = DEFAULT_SITES[name]
    assert sum(assert_masks_judge_as_the_scan_does(site, random.Random(seed))) == 24


@given(transformation_monoids(), st.integers(0, 1 << 32))
def test_masks_judge_naturality_as_the_scan_does_on_transformation_monoids(drawn, seed):
    m, _, _ = drawn
    assume(len(m) <= 24)
    assert_masks_judge_as_the_scan_does(canonical_site(m, "free+trivial"), random.Random(seed))


def test_masks_judge_both_ways_on_the_default_sites():
    rng = random.Random(5)
    natural = not_natural = 0
    for site in DEFAULT_SITES.values():
        no, yes = assert_masks_judge_as_the_scan_does(site, rng)
        natural, not_natural = natural + yes, not_natural + no
    assert natural > 100 and not_natural > 100


def custom_draws(m, act, rng, rounds=6):
    """A site of F(1), E(1) and act as the custom object X, and index sets
    drawn on it, each meeting X."""
    site = canonical_site(m, "free+trivial+custom", custom=[("X", act)])
    draws = []
    for _ in range(rounds):
        comps = [{p for p in range(len(a.carrier)) if rng.random() < 0.3} for a in site.objects]
        comps[site.names.index("X")].add(rng.randrange(len(act.carrier)))
        draws.append(comps)
    return site, draws


@given(transformation_monoids(), st.integers(0, 1 << 32))
def test_a_custom_object_takes_the_scan(drawn, seed):
    # the walk decides; the ordered scan runs only on a V that is not natural, and names its escape
    m, act, _ = drawn
    assume(len(m) <= 24)
    site, draws = custom_draws(m, act, random.Random(seed))
    scanned = []  # the scan's verdicts, in order

    def scan(site, comps):
        scanned.append(_naturality_violation(site, comps))
        return scanned[-1]

    not_natural = 0
    for comps in draws:
        natural = naturality_oracle(site, comps)
        not_natural += not natural
        chosen = {name: [a.carrier.elements[p] for p in s]
                  for name, a, s in zip(site.names, site.objects, comps)}
        with mock.patch.object(galois, "_naturality_violation", scan):
            try:
                Subfunctor(site, chosen)
                message = None
            except GaloisError as err:
                message = str(err)
        assert len(scanned) == not_natural
        bad = None if natural else scanned[-1]
        assert message == (bad and "not natural: a morphism %r -> %r moves %r outside the subset"
                           % (site.names[bad[0]], site.names[bad[1]], bad[2]))


@given(transformation_monoids(), st.integers(0, 1 << 32))
def test_the_walk_gives_the_generated_subfunctor_on_custom_sites(drawn, seed):
    m, act, _ = drawn
    assume(len(m) <= 24)
    site, draws = custom_draws(m, act, random.Random(seed))
    for comps in draws:
        assert _closure(site, comps) == as_mask(site, generated_oracle(site, comps))
    assert random_subfunctor(site, random.Random(seed)).components == closure_oracle(
        site, random.Random(seed))


@given(transformation_monoids(), st.integers(0, 1 << 32))
def test_a_natural_subfunctor_on_a_custom_object_derives_only_the_scan_s_hom_sets(drawn, seed):
    # only hom sets out of an object V meets and into one V does not fill
    m, act, _ = drawn
    assume(len(m) <= 24)
    site, draws = custom_draws(m, act, random.Random(seed))
    for comps in draws:
        closed = generated_oracle(site, comps)
        fresh = canonical_site(m, "free+trivial+custom", custom=[("X", act)])
        Subfunctor(fresh, {name: [a.carrier.elements[p] for p in s]
                           for name, a, s in zip(site.names, site.objects, closed)})
        sizes = [len(a.carrier) for a in site.objects]
        pairs = itertools.product(range(site.nobj), repeat=2)
        assert set(fresh._homs) <= {(i, j) for i, j in pairs
                                    if closed[i] and len(closed[j]) < sizes[j]}


def unbuilt(site):
    """An equal site whose objects no builder marked, so _closure walks on it."""
    return Site(site.monoid, [(name, MAction._trusted(site.monoid, act.carrier, act.table))
                              for name, act in zip(site.names, site.objects)])


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_random_subfunctors_off_base_points_equal_the_walk_s(name):
    # the walk along the generating morphisms, which custom objects take
    site = default_site(MONOIDS[name])
    walked = unbuilt(site)
    for seed in range(8):
        assert random_subfunctor(site, random.Random(seed)) == random_subfunctor(
            walked, random.Random(seed))
    assert site._homs == {}  # read off base points


@given(transformation_monoids(), st.integers(0, 1000))
def test_random_subfunctors_off_base_points_equal_the_walk_s_on_transformation_monoids(
        drawn, seed):
    m, _, _ = drawn
    assume(len(m) <= 24)
    site = canonical_site(m, "free+trivial")
    read = random_subfunctor(site, random.Random(seed))
    assert random_subfunctor(unbuilt(site), random.Random(seed)) == read
    assert site._homs == {}


def test_random_subfunctor_is_natural():
    rng = random.Random(11)
    for site in [default_site(Z2), default_site(E2), s3_nat_site()]:
        for _ in range(10):
            V = random_subfunctor(site, rng)
            assert V.site == site
            assert Subfunctor(site, V.components) == V  # the checked constructor


def test_stabilizer_examples():
    coset_site = canonical_site(S3, "cosets")
    S, _ = stabilizer(Subfunctor.empty(coset_site))
    assert S.elements == S3.elements
    T, _ = stabilizer(Subfunctor.full(coset_site))
    assert T.elements == ("e",)
    h = hom_from_subset(S3, ("e", "(12)"))
    site = default_site(S3)
    W, _ = stabilizer(invariants(h, site))
    assert W.elements == ("(12)", "e")


def test_stabilizer_via_end_agrees():
    for m in [Z2, Z4, E2]:
        site = default_site(m)
        for S, incl in enumerate_submonoids(m):
            V = invariants(incl, site)
            direct, _ = stabilizer(V)
            assert stabilizer_via_end(V).elements == direct.elements


def test_stabilizer_over_empty_site():
    site = Site(Z4, [])
    S = stabilizer_via_end(Subfunctor.empty(site))
    assert S.elements == Z4.elements


def test_stabilizer_shrinks_as_the_site_grows():
    small = canonical_site(S3, "cosets")
    big = default_site(S3)
    for S, incl in enumerate_submonoids(S3):
        Vs, _ = stabilizer(invariants(incl, small))
        Vb, _ = stabilizer(invariants(incl, big))
        assert set(Vb.elements) <= set(Vs.elements)


def test_correspondence_s3():
    report = galois_correspondence(S3, default_site(S3))
    assert report["bijective"] and report["inclusion_reversing"]
    assert len(report["closed_submonoids"]) == 6
    assert all(row["closed"] for row in report["submonoids"])


def test_correspondence_z4():
    report = galois_correspondence(Z4, default_site(Z4))
    assert report["bijective"] and report["inclusion_reversing"]
    chains = [tuple(s) for s in report["closed_submonoids"]]
    assert chains == [("e",), ("e", "g2"), ("e", "g", "g2", "g3")]
    sizes = [sum(len(v) for v in entry["subfunctor"].values())
             for entry in report["bijection"]]
    assert sizes == sorted(sizes, reverse=True)


def test_correspondence_trivial():
    one = trivial_monoid()
    report = galois_correspondence(one, default_site(one))
    assert report["bijective"]
    assert report["closed_submonoids"] == [["e"]]
    assert len(report["closed_subfunctors"]) == 1


def test_connection_laws():
    assert connection_laws(S3, default_site(S3))
    assert connection_laws(E2, canonical_site(E2, "free+trivial"))
    assert connection_laws(Z2, canonical_site(Z2, "trivial"))
    assert connection_laws(Z2, Site(Z2, []))
    assert connection_law_failures(Z4, default_site(Z4)) == []


def test_connection_laws_with_extras():
    site = s3_nat_site()
    extras = [Subfunctor(site, {"nat": ("3",)}),
              Subfunctor(site, {"nat": ("1", "2", "3")})]
    assert connection_laws(S3, site, extra_subfunctors=extras)


def test_order_is_componentwise_inclusion():
    site = default_site(S4)
    found = [invariants(incl, site) for _, incl in enumerate_submonoids(S4)]
    found += [Subfunctor.full(site), Subfunctor.empty(site)]
    assert len(set(found)) > 3
    for V, W in itertools.product(found, repeat=2):
        expected = all(set(V.component(n)) <= set(W.component(n)) for n in site.names)
        assert (V <= W) == expected
        assert (V <= W) == expected  # again, from the sets kept on V and W


def test_antitone():
    site = default_site(S3)
    pairs = enumerate_submonoids(S3)
    for S1, i1 in pairs:
        for S2, i2 in pairs:
            if set(S1.elements) <= set(S2.elements):
                assert invariants(i2, site) <= invariants(i1, site)


def test_long_lived_process_keeps_no_results():
    """Sweeps run one after another leave nothing reachable behind them."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m in (samples.symmetric3(), samples.cyclic(6), samples.mult_mod(6)):
            galois_correspondence(m, default_site(m))
        del m
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2 ** 20


def assert_sweeps_match_oracles(m, site, seed=0):
    extras = [random_subfunctor(site, random.Random(seed + k)) for k in range(3)]
    assert galois_correspondence(m, site) == correspondence_oracle(m, site)
    assert connection_law_failures(m, site, extras) == law_failures_oracle(m, site, extras)


SWEPT = dict(SAMPLES, S4=S4, T3=T3, Z4words=Z4_WORDS)


@pytest.mark.parametrize("m", list(SWEPT.values()), ids=list(SWEPT))
def test_mask_sweeps_equal_the_object_sweeps(m):
    assert_sweeps_match_oracles(m, default_site(m))


def test_mask_sweeps_equal_the_object_sweeps_on_custom_sites():
    assert_sweeps_match_oracles(S3, s3_nat_site())
    assert_sweeps_match_oracles(S3, canonical_site(S3, "cosets+custom", custom=[("nat", NAT3)]))
    assert_sweeps_match_oracles(Z4, Site(Z4, []))


@given(band_monoids(), st.integers(0, 1000))
def test_mask_sweeps_equal_the_object_sweeps_on_bands(m, seed):
    assert_sweeps_match_oracles(m, default_site(m), seed)


@given(transformation_monoids(), st.integers(0, 1000))
def test_mask_order_is_per_object_inclusion(drawn, seed):
    m, act, _ = drawn
    assume(len(m) <= 24)
    site = canonical_site(m, "free+trivial+custom", custom=[("X", act)])
    rng = random.Random(seed)
    found = [random_subfunctor(site, rng) for _ in range(6)]
    found += [Subfunctor.full(site), Subfunctor.empty(site)]
    for V, W in itertools.product(found, repeat=2):
        assert (V <= W) == included(V, W)
        assert (V == W) == (point_sets(V) == point_sets(W))
        if V == W:
            assert hash(V) == hash(W)


def test_extras_over_another_site_are_refused():
    extra = Subfunctor.full(default_site(Z4))
    with pytest.raises(GaloisError):
        connection_law_failures(Z4, canonical_site(Z4, "free+trivial"), [extra])


def inv_report(m, incl, spec, custom):
    """The `inv` report of incl over the site spec, each custom action written as a file."""
    S = incl.src
    docs = {"m": monoid_doc(m),
            "h": {"src": monoid_doc(S), "map": {b: incl(b) for b in S.elements}}}
    for name, act in custom:
        docs[name] = {"set": list(act.carrier), "act": {
            a: {x: act.apply(a, x) for x in act.carrier} for a in m.elements}}
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: os.path.join(tmp, name + ".json") for name in docs}
        for name, doc in docs.items():
            with open(path[name], "w") as fd:
                json.dump(doc, fd)
        argv = ["inv", "--monoid", path["m"], "--hom", path["h"], "--site", spec]
        for name, _ in custom:
            argv += ["--action", path[name]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
    return json.loads(out.getvalue())


def assert_tuple_route(m, spec, custom, incls, rng):
    """On the site of spec, the stabilizer through the end equals the direct
    one on the invariants of each inclusion, on a random subfunctor and on
    the empty one; the augmentation square and the reconstruction composite
    hold; and inv's adjoint route, Fix(Res_h X), equals invariants and the scan."""
    site = default_site(m) if spec == "default" else canonical_site(m, spec, custom=custom)
    assert augmentation_square_check(m, site)
    assert reconstruction_composite_check(m, end_of_forgetful(site))
    subs = [invariants(incl, site) for incl in incls]
    for V in subs + [random_subfunctor(site, rng), Subfunctor.empty(site)]:
        assert stabilizer_via_end(V).elements == stabilizer(V)[0].elements
    for incl, V in zip(incls, subs):
        doc = inv_report(m, incl, spec, custom)
        assert doc["oracle"] == doc["invariants"] == V.as_dict()
        assert V == invariants_oracle(incl, site)


def test_the_tuple_route_where_the_free_objects_carrier_is_out_of_element_order():
    site = default_site(Z4_WORDS)
    assert site.objects[-1].carrier.elements == ("(e,*)", "(g g g,*)", "(g g,*)", "(g,*)")
    incls = [incl for _, incl in enumerate_submonoids(Z4_WORDS)]
    assert_tuple_route(Z4_WORDS, "default", [], incls, random.Random(4))


@given(transformation_monoids(), st.randoms(use_true_random=False))
def test_the_tuple_route_on_transformation_monoids(drawn, rng):
    m, act, gens = drawn
    incls = [generated_inclusion(m, g) for g in gens]
    spec = "free+trivial+custom" if len(m) <= 5 else "trivial+custom"
    assert_tuple_route(m, spec, [("X", act)], incls, rng)


@given(band_monoids(), st.data(), st.randoms(use_true_random=False))
def test_the_tuple_route_on_bands(m, data, rng):
    subs = list(enumerate_submonoids(m))
    drawn = data.draw(st.lists(st.sampled_from(subs), min_size=1, max_size=3))
    assert_tuple_route(m, "default", [], [incl for _, incl in drawn], rng)
