"""The read-off behind ends, against brute-force enumeration and search.

`internal_nat` reads wedge families off a presentation of V by generating
points and relations.  `nat_oracle` finds them without any presentation:
it lists every map V(M_i) -> W(M_i), keeps those that commute with the
object's own endomorphisms, then extends object by object with wedge
checks against every site morphism, including every map of a pair of
trivial actions.  `nat_search_oracle` (in conftest) finds them by the
forcing search `propagate`, which scales to generated instances.

`end_of_forgetful` reads the end off a free object when the site has one;
`internal_nat` is then its oracle.

`reconstruction_hom` and `restrict_end` (in conftest) return index tuples
whose monoid laws are read off the components; the |A|^2 scan
`hom_law_oracle` (in conftest) into the end's own monoid is their oracle,
and the checked `MonoidHom` constructor must accept them too.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import (S4, SAMPLES, Z4_WORDS, SiteFunctor, assert_checked, generated_inclusion,
                      hom_law_oracle, invariants_oracle, maps_monoid, nat_search_oracle, propagate, restrict_end,
                      transformation_monoids, underlying_site)
from galmon.finset import FinSet, SizingError
from galmon.monoid import MonoidHom, enumerate_submonoids, is_hopf, trivial_monoid
from galmon.actions import (MAction, Site, canonical_site, coset_action, default_site,
                            trivial_action)
from galmon import ends, finset
from galmon.ends import (ForgetfulDiagram, end_monoid, end_of_forgetful, internal_nat,
                         reconstruction_hom)
from galmon.galois import (Subfunctor, invariants, random_subfunctor, stabilizer,
                           stabilizer_via_end)
from galmon import samples

# Sum over objects of |W_i|^|V_i| above which the oracle is too slow to run.
ORACLE_CANDIDATES = 10000


def nat_oracle(V, W):
    """The wedge families of [V, W], by enumerating candidate maps."""
    site = V.site
    k = site.nobj
    vsize = [len(ob) for ob in V.obs]
    wsize = [len(ob) for ob in W.obs]
    cands = []
    for i in range(k):
        kept = []
        for t in itertools.product(range(wsize[i]), repeat=vsize[i]):
            if all(t[Vf[p]] == Wf[t[p]]
                   for Vf, Wf in ((V.mor(i, i, f), W.mor(i, i, f))
                                  for f in site.iter_hom_tuples(i, i))
                   for p in range(vsize[i])):
                kept.append(t)
        cands.append(kept)

    def mors(i, j):
        return [(V.mor(i, j, f), W.mor(i, j, f)) for f in site.iter_hom_tuples(i, j)]

    def fits(assign, i, t):
        for j, tj in enumerate(assign):
            for Vf, Wf in mors(j, i):
                if any(Wf[tj[p]] != t[Vf[p]] for p in range(vsize[j])):
                    return False
            for Vf, Wf in mors(i, j):
                if any(Wf[t[p]] != tj[Vf[p]] for p in range(vsize[i])):
                    return False
        return True

    families = []

    def rec(assign):
        if len(assign) == k:
            families.append(tuple(assign))
            return
        for t in cands[len(assign)]:
            if fits(assign, len(assign), t):
                rec(assign + [t])

    rec([])
    return families


def agree_with_oracle(site, subfunctors):
    """Compare solver and oracle on the carriers of the site and of its
    underlying-carrier site, and on each subfunctor against the carriers.
    Pairs whose oracle would be slow are skipped; returns how many ran."""
    U = ForgetfulDiagram(site)
    B = ForgetfulDiagram(underlying_site(site)[0])
    checked = 0
    for V, W in [(U, U), (B, B)] + [(sub, U) for sub in subfunctors]:
        if sum(len(w) ** len(v) for v, w in zip(V.obs, W.obs)) <= ORACLE_CANDIDATES:
            assert list(internal_nat(V, W).families) == nat_oracle(V, W)
            checked += 1
    return checked


CASES = [pytest.param(m, recipe, id="%d-%s" % (k, recipe))
         for k, m in enumerate(samples.groups_up_to_order_6() + samples.nongroup_monoids())
         for recipe in ("free", "free+trivial", "cosets+free")
         if recipe != "cosets+free" or is_hopf(m)]


@pytest.mark.parametrize("m, recipe", CASES)
def test_solver_matches_oracle_on_samples(m, recipe):
    site = canonical_site(m, recipe)
    invariant = dict.fromkeys(invariants_oracle(incl, site)
                              for _, incl in enumerate_submonoids(m))
    assert agree_with_oracle(site, invariant) >= 1


@given(transformation_monoids())
def test_solver_matches_oracle_on_transformation_monoids(drawn):
    m, act, gens = drawn
    recipe = "free+trivial+custom" if len(m) <= 5 else "trivial+custom"
    site = canonical_site(m, recipe, custom=[("X", act)])
    invariant = []
    for g in gens:
        incl = generated_inclusion(m, g)
        invariant.append(invariants_oracle(incl, site))
        assert invariants(incl, site) == invariant[-1]
    agree_with_oracle(site, invariant)


@given(transformation_monoids(), st.randoms(use_true_random=False))
def test_read_off_matches_the_search_oracle_on_transformation_monoids(drawn, rng):
    # invariants, random subfunctors and empty subfunctors, on sites with
    # and without an empty object, and underlying sites whose carriers all
    # have two points or more (every pair lazy)
    m, act, gens = drawn
    empty = MAction(m, FinSet(()), {})
    recipes = ("free+trivial+custom", "trivial+custom") if len(m) <= 5 else ("trivial+custom",)
    incls = [generated_inclusion(m, g) for g in gens]
    for recipe in recipes:
        for custom in ([("X", act)], [("X", act), ("0", empty)]):
            site = canonical_site(m, recipe, custom=custom)
            U = ForgetfulDiagram(site)
            subs = [invariants(incl, site) for incl in incls]
            subs += [random_subfunctor(site, rng), Subfunctor.empty(site)]
            pairs = [(U, U)] + [(sub, U) for sub in subs]
            pairs += [(U, sub) for sub in subs[-2:]]
            for V, W in pairs:
                assert list(internal_nat(V, W).families) == nat_search_oracle(V, W)
    for recipe in ("custom", "free+custom") if len(m) <= 30 else ("custom",):
        B = ForgetfulDiagram(underlying_site(canonical_site(m, recipe, custom=[("X", act)]))[0])
        assert list(internal_nat(B, B).families) == nat_search_oracle(B, B)


def points_site(*sizes):
    one = trivial_monoid()
    return Site(one, [("X%d" % n, trivial_action(one, FinSet(str(p) for p in range(n))))
                      for n in sizes])


class Tables:
    """A diagram given as explicit functor tables, taken on trust."""

    def __init__(self, site, obs, tables):
        self.site, self.obs, self.tables = site, obs, tables

    def mor(self, i, j, f):
        return self.tables[(i, j)][f]


def test_maps_between_trivial_objects_constrain_the_end():
    # the constant functor at a two-point set: a natural family from the
    # carriers is constant on each carrier, and the maps between carriers
    # make those constants agree
    site = points_site(1, 2, 3)
    tables = {(i, j): {f: (0, 1) for f in site.iter_hom_tuples(i, j)}
              for i in range(site.nobj) for j in range(site.nobj)}
    U, W = ForgetfulDiagram(site), Tables(site, [FinSet(("a", "b"))] * 3, tables)
    families = nat_oracle(U, W)
    assert len(families) == 2
    assert list(internal_nat(U, W).families) == families


def test_transpositions_constrain_the_end():
    # all self-maps of three points acting on {a, b, z}: odd permutations
    # swap a and b, other maps of rank 3 fix everything, the rest send all
    # to z; only the transpositions force a natural family to commute with
    # the swap
    site = points_site(3)

    def image(f):
        if len(set(f)) < 3:
            return (2, 2, 2)
        odd = sum(f[p] > f[q] for p in range(3) for q in range(p + 1, 3)) % 2
        return (1, 0, 2) if odd else (0, 1, 2)

    tables = {(0, 0): {f: image(f) for f in site.iter_hom_tuples(0, 0)}}
    V = Tables(site, [FinSet(("a", "b", "z"))], tables)
    families = nat_oracle(V, V)
    assert len(families) == 3
    assert list(internal_nat(V, V).families) == families


def test_propagate_yields_lexicographic_solutions():
    # x0 = q forces x1 = q; x2 is free
    rules = [[(1, (0, 1))], [], []]
    assert list(propagate([2, 2, 3], rules)) == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 1, 0), (1, 1, 1), (1, 1, 2)]
    # x0 = 0 clashes with itself through x1
    rules = [[(1, (1, 1))], [(0, (1, 1))]]
    assert list(propagate([2, 2], rules)) == [(1, 1)]
    assert list(propagate([], [])) == [()]
    assert list(propagate([0], [[]])) == []


def test_end_refusal_names_layer_count_and_limit(monkeypatch):
    U = ForgetfulDiagram(canonical_site(samples.symmetric3(), "free"))
    internal_nat(U, U)  # the site's hom sets are read off, under the default limit
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 10)
    with pytest.raises(SizingError) as exc:
        internal_nat(U, U)
    assert str(exc.value) == "ends: 12 candidate assignments exceed the limit of 10"


def test_the_presentation_build_counts_against_the_limit(monkeypatch):
    # S3's free object: the walk composes a 6-cell table along each of the
    # 36 edges (6 points, 6 endomorphisms), 216 cells, and the read-off then
    # tries 6 values and writes 6 images for each of 6 families, 42 more on
    # the same count
    U = ForgetfulDiagram(canonical_site(samples.symmetric3(), "free"))
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 258)
    assert len(internal_nat(U, U)) == 6
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 257)
    with pytest.raises(SizingError) as exc:
        internal_nat(U, U)
    assert str(exc.value) == "ends: 258 candidate assignments exceed the limit of 257"
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 100)
    monkeypatch.setattr(ends, "read_off", None)  # refused before the read-off starts
    with pytest.raises(SizingError) as exc:
        internal_nat(U, U)
    assert str(exc.value) == "ends: 102 candidate assignments exceed the limit of 100"


def has_free_object(site):
    """True iff some object is A.x0 with a -> a.x0 one-to-one."""
    m = site.monoid
    return any(len(act.carrier) == len(m) == len({act.apply(a, x) for a in m.elements})
               for act in site.objects for x in act.carrier)


def end_and_route(site):
    """end_of_forgetful(site), and whether it called internal_nat."""
    calls = []

    def spy(*args):
        calls.append(args)
        return internal_nat(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ends, "internal_nat", spy)
        end = end_of_forgetful(site)
    return end, bool(calls)


def assert_end_matches_search(site):
    """The end is read off exactly when the site has a free object, and
    then agrees with internal_nat in families, carrier, unit and table.  Both
    end monoids equal the checked constructor's; the end's unit is its
    monoid's, and the reconstruction carrier map passes the checked |A|^2
    constructor into that monoid."""
    end, searched = end_and_route(site)
    assert searched != has_free_object(site)
    assert_checked(end_monoid(end))
    assert end.unit() == end_monoid(end).unit
    rho = reconstruction_hom(site.monoid, end)
    fams = dict(zip(site.monoid.elements, map(end.carrier.elements.__getitem__, rho)))
    assert hom_law_oracle(site.monoid, end_monoid(end), fams) is None
    assert MonoidHom(site.monoid, end_monoid(end), fams).images == rho
    if not searched:
        U = ForgetfulDiagram(site)
        ref = internal_nat(U, U)
        assert end.families == ref.families
        assert end.carrier.elements == ref.carrier.elements
        E, R = end_monoid(end), end_monoid(ref)
        assert_checked(R)
        assert E.unit == R.unit
        assert E.table == R.table
    return searched


READ_OFF = [pytest.param(m, recipe, id="%s-%s" % (name, recipe))
            for name, m in list(SAMPLES.items()) + [("S4", S4), ("Z4words", Z4_WORDS)]
            for recipe in ("default", "free", "free+trivial")]


def site_of(m, recipe):
    if recipe == "natural":  # S3 on its three points, no free object
        return canonical_site(m, "custom", custom=[("s3_natural", samples.natural_action3())])
    return default_site(m) if recipe == "default" else canonical_site(m, recipe)


@pytest.mark.parametrize("m, recipe", READ_OFF)
def test_read_off_matches_search_on_samples(m, recipe):
    assert not assert_end_matches_search(site_of(m, recipe))


def test_reconstruction_is_a_hom_on_the_natural_site_of_s3():
    # 27 families over S3's three points, none of them read off a free object
    assert assert_end_matches_search(site_of(samples.symmetric3(), "natural"))


@pytest.mark.parametrize("m, recipe", READ_OFF + [
    pytest.param(samples.symmetric3(), "natural", id="S3-natural")])
def test_a_full_subset_diagram_restricts_an_end_to_its_own_families(m, recipe, monkeypatch):
    site = site_of(m, recipe)
    end = end_of_forgetful(site)
    full = Subfunctor.full(site)
    ref = internal_nat(full, ForgetfulDiagram(site))
    monkeypatch.setattr(ends, "internal_nat", None)  # no walk: the end's families are End[V, U]'s
    cut, target = ends.family_restriction(end, full)
    assert (target.families, target.carrier) == (ref.families, ref.carrier)
    assert cut == tuple(range(len(end)))


def assert_read_off_matches_search(site, subs):
    """internal_nat and the search agree on [V, U] for each subfunctor V."""
    U = ForgetfulDiagram(site)
    for V in subs:
        assert list(internal_nat(V, U).families) == nat_search_oracle(V, U)


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_read_off_matches_search_where_v_misses_objects(m):
    # the walk derives no hom set out of an object where V is empty; on a
    # group's cosets-and-free site a subgroup's invariants miss G/{e}
    site = default_site(m)
    subs = {invariants(incl, site) for _, incl in enumerate_submonoids(m)}
    subs.add(Subfunctor.empty(site))
    if is_hopf(m) and len(m) > 1:
        assert [V for V in subs if V.mask and not all(V.components.values())]
    assert_read_off_matches_search(site, subs)


@given(st.sampled_from(sorted(SAMPLES)), st.data(), st.randoms(use_true_random=False))
def test_read_off_matches_search_on_drawn_subfunctors_that_miss_objects(name, data, rng):
    # a subgroup's invariants cut down by a random subfunctor: natural, and
    # empty on every object the invariants miss
    m = SAMPLES[name]
    site = default_site(m)
    _, incl = data.draw(st.sampled_from(list(enumerate_submonoids(m))))
    V = invariants(incl, site)
    V = Subfunctor._trusted(site, V.mask & random_subfunctor(site, rng).mask)
    assert Subfunctor(site, V.components) == V  # the naturality check passes
    assert_read_off_matches_search(site, [V])


def test_restrictions_are_homs_between_the_end_monoids():
    # the sites of test_ends' test_restrict_end_* cases
    z2 = samples.cyclic(2)
    site = default_site(z2)
    cases = [(site, site, tuple(range(site.nobj)))]
    site = canonical_site(z2, "free+trivial")
    cases.append((Site(z2, [("F(1)", site.objects[site.names.index("F(1)")])]), site, (0,)))
    A = canonical_site(z2, "free+trivial+custom", custom=(("sw", samples.swap_action()),))
    B = Site(z2, list(zip(A.names[:2], A.objects[:2])))
    C = Site(z2, [(A.names[0], A.objects[0])])
    cases += [(B, A, (0, 1)), (C, B, (0,)), (C, A, (0,))]
    for src, dst, ob_map in cases:
        up, down = end_of_forgetful(dst), end_of_forgetful(src)
        r = restrict_end(up, SiteFunctor(src, dst, ob_map), down)
        fams = dict(zip(up.carrier, map(down.carrier.elements.__getitem__, r)))
        assert hom_law_oracle(end_monoid(up), end_monoid(down), fams) is None
        assert MonoidHom(end_monoid(up), end_monoid(down), fams).images == r


def test_no_end_table_is_composed_on_the_way_to_a_stabilizer(monkeypatch):
    # S5 on its five points: 3125 wedge families, whose end monoid would
    # have 9765625 table cells, far past the limit set here
    s5 = maps_monoid(list(itertools.permutations(range(5))))  # "t" and the images
    points = FinSet(map(str, range(5)))
    natural = MAction(s5, points, {(a, x): a[1 + int(x)] for a in s5.elements for x in points})
    site = canonical_site(s5, "custom", custom=[("X", natural)])
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 100_000)
    end = end_of_forgetful(site)
    assert len(end) == 5 ** 5
    rho = reconstruction_hom(s5, end)
    assert len(set(rho)) == len(s5) < len(end)
    V = Subfunctor(site, {"X": ["0"]})
    T = stabilizer_via_end(V)
    assert T.elements == stabilizer(V)[0].elements
    assert len(T) == 24
    with pytest.raises(SizingError):
        end_monoid(end)


@given(transformation_monoids())
def test_read_off_matches_search_on_transformation_monoids(drawn):
    m, act, _ = drawn
    # internal_nat over the free object writes about |A|^3 table cells
    recipes = ("custom", "free+custom", "free+trivial") if len(m) <= 30 else ("custom",)
    for recipe in recipes:
        assert_end_matches_search(canonical_site(m, recipe, custom=[("X", act)]))


def test_sites_without_a_free_object_are_searched():
    z2, s3 = samples.cyclic(2), samples.symmetric3()
    # Z2 on itself plus a fixed point: the orbit of the unit is free but is
    # not the whole object, and collapsing everything onto the fixed point is
    # a wedge family beside the two translations
    act = {(a, b): z2.mul(a, b) for a in z2.elements for b in z2.elements}
    act.update({(a, "*"): "*" for a in z2.elements})
    plus_point = MAction(z2, FinSet(z2.elements + ("*",)), act)
    sites = [Site(z2, [("Z2+*", plus_point)]), Site(z2, []),
             canonical_site(z2, "trivial"), canonical_site(s3, "trivial"),
             Site(s3, [("G/A3", coset_action(s3, ("e", "(123)", "(132)")))])]
    for site in sites:
        assert assert_end_matches_search(site)
        U = ForgetfulDiagram(site)
        assert list(end_of_forgetful(site).families) == nat_oracle(U, U)
    assert len(end_of_forgetful(sites[0])) == 3


def test_read_off_guard_counts_one_assignment_per_family_object_and_point(monkeypatch):
    # 6 families of the 6 points of S3's free object, and of the 24 points
    # of its default site: the read-off writes the table cells the site's
    # guard counted before the site was built, and searches nothing
    m = samples.symmetric3()
    for recipe, cells in (("free", 36), ("cosets+free", 144)):
        monkeypatch.setattr(finset, "MAX_ENUMERATION", cells)
        end, searched = end_and_route(canonical_site(m, recipe))
        assert len(end) == 6 and not searched
        monkeypatch.setattr(finset, "MAX_ENUMERATION", cells - 1)
        with pytest.raises(SizingError) as exc:
            canonical_site(m, recipe)
        assert str(exc.value) == ("actions.canonical_site: %d table cells exceed the limit of %d"
                                  % (cells, cells - 1))
