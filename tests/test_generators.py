"""The laws and hom sets checked on a generating set, against the scans
over all pairs and triples that list every violation."""

import itertools

import pytest
from hypothesis import assume, given, strategies as st

from conftest import (NONASSOC, S4, SAMPLES, Z4_WORDS, entries, equivariant_filter, hom_law_oracle,
                      hom_search_oracle, identity_hom, products, transformation_monoid,
                      transformation_monoids)
from galmon import actions, monoid
from galmon.finset import FinSet, FinSetError, map_label, product, singleton
from galmon.monoid import (Monoid, MonoidError, MonoidHom, generators, laws_hold,
                           validate_monoid, submonoid_tuples, enumerate_submonoids,
                           is_subgroup, is_hopf)
from galmon.actions import (MAction, Site, validate_action, trivial_action, free_action,
                            restrict_action, coinduct, coset_action, canonical_site,
                            default_site, hom_tuples)


def monoid_laws_oracle(m):
    """Every unit-law and associativity violation, over all triples."""
    out = []
    for a in m.elements:
        if m.mul(m.unit, a) != a:
            out.append("unit law fails: %s*%s = %s" % (m.unit, a, m.mul(m.unit, a)))
        if m.mul(a, m.unit) != a:
            out.append("unit law fails: %s*%s = %s" % (a, m.unit, m.mul(a, m.unit)))
    for a, b, c in itertools.product(m.elements, repeat=3):
        left = m.mul(m.mul(a, b), c)
        right = m.mul(a, m.mul(b, c))
        if left != right:
            out.append("associativity fails at (%s, %s, %s): %s vs %s"
                       % (a, b, c, left, right))
    return out


def action_laws_oracle(M):
    """Every unit and associativity violation of an action, over all pairs."""
    m = M.monoid
    out = []
    for x in M.carrier:
        y = M.apply(m.unit, x)
        if y != x:
            out.append("unit fails: %s.%s = %s" % (m.unit, x, y))
    for a, b in itertools.product(m.elements, repeat=2):
        ab = m.mul(a, b)
        for x in M.carrier:
            if M.apply(ab, x) != M.apply(a, M.apply(b, x)):
                out.append("associativity fails at (%s, %s, %s): %s vs %s"
                           % (a, b, x, M.apply(ab, x), M.apply(a, M.apply(b, x))))
    return out


def coset_action_oracle(m, sub_elements):
    """The coset action built element by element."""
    subset = tuple(sorted(sub_elements))
    label_of = {}
    for a in m.elements:
        label_of[a] = "{%s}" % ",".join(sorted(frozenset(m.mul(a, s) for s in subset)))
    carrier = FinSet(sorted(set(label_of.values())), check=False)
    rep = {}
    for a in m.elements:
        rep.setdefault(label_of[a], a)
    return MAction(m, carrier, {(a, c): label_of[m.mul(a, rep[c])]
                                for a in m.elements for c in carrier})


def trivial_action_oracle(m, X):
    return MAction(m, X, {(a, x): x for a in m.elements for x in X})


def free_action_oracle(m, X):
    """The free action built pair by pair, by element names."""
    P = product(m.carrier, X)
    label = {(b, x): p for p, (b, x) in P._pairs.items()}
    return MAction(m, P, {(a, p): label[(m.mul(a, b), x)]
                          for a in m.elements for p, (b, x) in P._pairs.items()})


def restrict_action_oracle(h, M):
    return MAction(h.src, M.carrier, {(b, x): M.apply(h(b), x)
                                      for b in h.src.elements for x in M.carrier})


def coinduct_oracle(h, N):
    """The coinduced action built map by map, by element names: the maps
    A -> N equivariant for h, found by the propagation search, and a
    sending f to a2 -> f(a2 a)."""
    A = h.dst
    twisted = MAction(h.src, A.carrier, {(b, a): A.mul(h(b), a)
                                         for b in h.src.elements for a in A.carrier})
    maps = [dict(zip(A.elements, map(N.carrier.elements.__getitem__, t)))
            for t in hom_search_oracle(twisted, N)]
    label = [map_label(A.elements, tuple(f.values())) for f in maps]
    act = {(a, e): map_label(A.elements, tuple(f[A.mul(a2, a)] for a2 in A.elements))
           for a in A.elements for e, f in zip(label, maps)}
    return MAction(A, FinSet(label, check=False), act)


def relabelled(h):
    """h precomposed with a renaming of its source's elements, so that an
    element's name no longer says where h sends it."""
    name = {b: "<%s>" % b for b in h.src.elements}
    src = Monoid(FinSet(name.values()), name[h.src.unit],
                 {(name[a], name[b]): name[c] for (a, b), c in products(h.src).items()})
    return MonoidHom(src, h.dst, {name[b]: h(b) for b in h.src.elements})


def constant_hom(m):
    """m -> m sending every element to the unit."""
    return MonoidHom(m, m, dict.fromkeys(m.elements, m.unit))


def coinduced_size_bound(h, N):
    """|N| to the number of points that, under left multiplication by the
    image of h, reach all of h's target: at least |coinduct(h, N)|, since
    an equivariant map is fixed by its values there."""
    A = h.dst
    left, g = set(A.elements), 0
    while left:
        x = min(left)
        left -= {A.mul(h(b), x) for b in h.src.elements}
        g += 1
    return len(N.carrier) ** g


def right_closure(m, gens):
    """The unit and everything reached from it by right multiplication by gens."""
    reached = {m.unit}
    frontier = [m.unit]
    while frontier:
        s = frontier.pop()
        for g in gens:
            t = m.mul(s, g)
            if t not in reached:
                reached.add(t)
                frontier.append(t)
    return reached


def retabled(m, key, value):
    """A fresh copy of m with one table entry replaced."""
    table = products(m)
    table[key] = value
    return Monoid(m.carrier, m.unit, table)


def reacted(M, key, value):
    """A fresh copy of M with one entry replaced."""
    act = entries(M)
    act[key] = value
    return MAction(M.monoid, M.carrier, act)


def bumped(elements, x):
    """The element after x, cyclically: a value different from x."""
    return elements[(elements.index(x) + 1) % len(elements)]


def actions_of(m):
    """The free action, a two-point trivial action and, for groups, the
    coset actions of every subgroup."""
    out = [free_action(m, singleton()), trivial_action(m, FinSet(("p", "q")))]
    if is_hopf(m):
        out += [coset_action(m, s) for s in submonoid_tuples(m) if is_subgroup(m, s)]
    return out


def assert_generators_reach_everything(m):
    gens = generators(m)
    assert list(gens) == sorted(gens)
    names = [m.elements[g] for g in gens]
    assert right_closure(m, names) == set(m.elements)
    for k, g in enumerate(names):
        assert g not in right_closure(m, names[:k])


def assert_site_homs_match_all_element_forcing(site):
    for i, j in itertools.product(range(site.nobj), repeat=2):
        if not site._pair_is_lazy(i, j):
            assert list(site.iter_hom_tuples(i, j)) == hom_search_oracle(
                site.objects[i], site.objects[j])


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_generators_reach_every_element(m):
    assert_generators_reach_everything(m)
    if is_hopf(m):
        assert 1 <= len(generators(m)) <= 3 or len(m) == 1


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_validate_monoid_equals_the_scan(m):
    assert validate_monoid(m) == monoid_laws_oracle(m) == []
    if len(m) > 8:
        return
    for key, value in products(m).items():
        bad = retabled(m, key, bumped(m.elements, value))
        assert validate_monoid(bad) == monoid_laws_oracle(bad)


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_lawful_tables_are_decided_on_the_generators(m, monkeypatch):
    # the along-generators check accepts every lawful monoid and action
    # alone, with no full scan behind it
    def scan(*args):
        raise AssertionError("full associativity scan")
    monkeypatch.setattr(monoid, "associativity_failures", scan)
    monkeypatch.setattr(actions, "associativity_failures", scan)
    assert validate_monoid(m) == []
    for M in actions_of(m) + [MAction(m, m.carrier, products(m))]:
        assert validate_action(M) == []


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_validate_action_equals_the_scan(m):
    for M in actions_of(m):
        assert validate_action(M) == action_laws_oracle(M) == []
        if len(M.monoid) * len(M.carrier) > 64:
            continue
        elements = M.carrier.elements
        for key, value in entries(M).items() if len(elements) > 1 else ():
            bad = reacted(M, key, bumped(elements, value))
            assert validate_action(bad) == action_laws_oracle(bad)


@pytest.mark.parametrize("m", [SAMPLES["S3"], SAMPLES["M4"], SAMPLES["V4"]],
                         ids=["S3", "M4", "V4"])
def test_actions_over_a_corrupted_table_get_the_full_scan(m):
    for key, value in products(m).items():
        bad = retabled(m, key, bumped(m.elements, value))
        # the regular action of m, now over the corrupted table
        for M in (MAction(bad, m.carrier, products(m)),
                  trivial_action(bad, FinSet(("p", "q")))):
            assert validate_action(M) == action_laws_oracle(M)


def test_non_associative_table_with_actions():
    assert validate_monoid(NONASSOC) == monoid_laws_oracle(NONASSOC) == [
        "associativity fails at (a, b, b): a vs e", "associativity fails at (b, b, a): e vs a"]
    assert generators(NONASSOC) == (0, 1)  # a and b
    # a acts as the identity and b as a swap: every law of an action holds
    swap = MAction(NONASSOC, FinSet(("0", "1")),
                   {("e", "0"): "0", ("e", "1"): "1", ("a", "0"): "0", ("a", "1"): "1",
                    ("b", "0"): "1", ("b", "1"): "0"})
    trivial = trivial_action(NONASSOC, FinSet(("p", "q")))
    for M in (swap, trivial):
        assert validate_action(M) == action_laws_oracle(M) == []
    site = Site(NONASSOC, [("swap", swap), ("E", trivial), ("E1", trivial_action(
        NONASSOC, singleton()))])
    assert_site_homs_match_all_element_forcing(site)
    assert list(site.iter_hom_tuples(0, 0)) == [(0, 1), (1, 0)]
    assert list(site.iter_hom_tuples(0, 1)) == [(0, 0), (1, 1)]


def test_generators_force_homs_when_the_unit_law_fails():
    # e*b = a, so b is a generator that right multiplication never reaches;
    # e acts as the identity and a and b as the same swap
    fake = Monoid(FinSet(("a", "b", "e")), "e",
                  {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "a",
                   ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "e",
                   ("b", "e"): "a", ("b", "a"): "e", ("b", "b"): "e"})
    assert generators(fake) == (0, 1)  # a and b
    assert right_closure(fake, ("a", "b")) == {"a", "e"}
    assert validate_monoid(fake) == monoid_laws_oracle(fake) != []
    swap = MAction(fake, FinSet(("0", "1")),
                   {("e", "0"): "0", ("e", "1"): "1", ("a", "0"): "1", ("a", "1"): "0",
                    ("b", "0"): "1", ("b", "1"): "0"})
    assert validate_action(swap) == action_laws_oracle(swap) == []
    site = Site(fake, [("swap", swap), ("E", trivial_action(fake, FinSet(("p", "q"))))])
    assert_site_homs_match_all_element_forcing(site)
    assert list(site.iter_hom_tuples(0, 0)) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_site_homs_match_all_element_forcing(m):
    sites = [default_site(m), canonical_site(m, "free+trivial")]
    if is_hopf(m):
        sites.append(canonical_site(m, "cosets"))
    for site in sites:
        assert_site_homs_match_all_element_forcing(site)


@pytest.mark.parametrize("m", [m for m in SAMPLES.values() if is_hopf(m)] + [S4],
                         ids=[k for k, m in SAMPLES.items() if is_hopf(m)] + ["S4"])
def test_coset_action_equals_the_per_element_construction(m):
    for s in submonoid_tuples(m):
        if is_subgroup(m, s):
            assert coset_action(m, s) == coset_action_oracle(m, s)
            assert coset_action(m, reversed(s)) == coset_action_oracle(m, s)


@st.composite
def permutation_groups(draw):
    """The group up to two drawn permutations of n <= 5 points generate."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    return transformation_monoid([tuple(g) for g in gens])[0]


def generated_subgroup(m, elements):
    """The elements of the subgroup of the group m that elements generate."""
    closed = {m.unit, *elements}
    while True:
        more = {m.mul(a, b) for a in closed for b in closed} - closed
        if not more:
            return tuple(a for a in m.elements if a in closed)
        closed |= more


@given(permutation_groups(), st.data())
def test_group_builders_match_the_oracles_on_permutation_groups(m, data):
    # H = G and H = {e} give one coset and one point per coset, where a
    # getter of one index returns an item, not a tuple
    picks = data.draw(st.lists(st.sampled_from(m.elements), max_size=2))
    for sub in ((m.unit,), m.elements, generated_subgroup(m, picks)):
        expected = coset_action_oracle(m, sub)
        assert coset_action(m, sub) == coset_action(m, sub[::-1]) == expected
    for X in (FinSet(), singleton(), FinSet(("p", "q"))):
        assert free_action(m, X) == free_action_oracle(m, X)


@given(transformation_monoids(), st.data())
def test_fast_paths_match_the_scans_on_transformation_monoids(drawn, data):
    m, act, _ = drawn
    assume(len(m) <= 24)  # the scans are cubic and the free object's homs quadratic
    assert_generators_reach_everything(m)
    assert validate_monoid(m) == monoid_laws_oracle(m) == []
    assert validate_action(act) == action_laws_oracle(act) == []
    assert_site_homs_match_all_element_forcing(
        canonical_site(m, "free+trivial+custom", custom=[("X", act)]))
    key = data.draw(st.sampled_from(sorted(entries(act))))
    bad = reacted(act, key, data.draw(st.sampled_from(act.carrier.elements)))
    assert validate_action(bad) == action_laws_oracle(bad)
    key = data.draw(st.sampled_from(sorted(products(m))))
    bad = retabled(m, key, data.draw(st.sampled_from(m.elements)))
    assert validate_monoid(bad) == monoid_laws_oracle(bad)
    for M in (MAction(bad, act.carrier, entries(act)), trivial_action(bad, FinSet(("p", "q")))):
        assert validate_action(M) == action_laws_oracle(M)


@given(transformation_monoids())
def test_hom_search_in_orbit_order_matches_the_filter(drawn):
    m, act, _ = drawn
    two = trivial_action(m, FinSet(("p", "q")))
    for M, N in [(act, act), (act, two), (two, act)]:
        assert hom_tuples(M, N) == equivariant_filter(M, N) == hom_search_oracle(M, N)


def test_free_object_search_starts_from_the_largest_orbit():
    # the constant maps come first in carrier order; the unit's point reaches
    # every point, so it is the one generating point and no other is searched
    m, _ = transformation_monoid([(1, 0, 1, 2), (0, 1, 1, 1), (2, 2, 3, 3)])
    F = free_action(m, singleton())
    assert len(m) == 20
    (x0,) = F._presentation()[0]
    assert x0 != 0 and sorted(row[x0] for row in F.table) == list(range(20))
    homs = hom_tuples(F, F)
    gens = [m.elements[g] for g in generators(m)]
    assert len(homs) == 20 and homs == sorted(homs) == hom_search_oracle(F, F, gens)


def assert_builders_match_their_oracles(pairs):
    for built, oracle in pairs:
        assert built == oracle and hash(built) == hash(oracle)


def builders_and_oracles(m, M, homs, coinduce_within=256):
    """Each package builder next to its oracle: trivial and free actions of
    m, restrictions of M along homs, and coinduction along each hom h of
    the restriction of M and of h's free action on one point, wherever the
    coinduced carrier stays small."""
    X = FinSet(("x", "y"))
    pairs = [(trivial_action(m, X), trivial_action_oracle(m, X)),
             (free_action(m, X), free_action_oracle(m, X))]
    for h in homs:
        pairs.append((restrict_action(h, M), restrict_action_oracle(h, M)))
        for N in (restrict_action_oracle(h, M), free_action_oracle(h.src, singleton())):
            if coinduced_size_bound(h, N) <= coinduce_within:
                pairs.append((coinduct(h, N), coinduct_oracle(h, N)))
    return pairs


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4, Z4_WORDS],
                         ids=list(SAMPLES) + ["S4", "Z4words"])
def test_builders_equal_their_oracles(m):
    F = free_action_oracle(m, singleton())
    homs = [identity_hom(m), constant_hom(m)]
    homs += [relabelled(incl) for _, incl in enumerate_submonoids(m)]
    assert_builders_match_their_oracles(builders_and_oracles(m, F, homs, 2000))


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_a_monoid_table_is_its_regular_action_table(m):
    regular = MAction(m, m.carrier, products(m))
    assert regular.table == m.table


@given(transformation_monoids())
def test_builders_equal_their_oracles_on_transformation_monoids(drawn):
    m, act, _ = drawn
    assume(len(m) <= 24)
    homs = [identity_hom(m), constant_hom(m)]
    homs += [relabelled(incl) for _, incl in enumerate_submonoids(m)]
    assert_builders_match_their_oracles(builders_and_oracles(m, act, homs))


def hom_verdict(src, dst, assignment):
    """MonoidHom's error on the assignment, or None when it accepts it."""
    try:
        MonoidHom(src, dst, assignment)
    except (FinSetError, MonoidError) as exc:
        return str(exc)
    return None


def drawn_assignment(data, src, dst):
    """A random name map src -> dst; half of them fix the unit, and a few
    leave an element out, send one outside dst or name a key outside src."""
    images = data.draw(st.lists(st.sampled_from(dst.elements),
                                min_size=len(src), max_size=len(src)))
    assignment = dict(zip(src.elements, images))
    if data.draw(st.booleans()):
        assignment[src.unit] = dst.unit
    edit = data.draw(st.sampled_from(["none"] * 5 + ["missing", "outside", "extra"]))
    b = data.draw(st.sampled_from(src.elements))
    if edit == "missing":
        del assignment[b]
    elif edit == "outside":
        assignment[b] = "?"
    elif edit == "extra":
        assignment["?"] = dst.unit
    return assignment


SMALL_MONOIDS = st.sampled_from(list(SAMPLES.values())) | transformation_monoids().filter(
    lambda drawn: len(drawn[0]) <= 24).map(lambda drawn: drawn[0])


@st.composite
def unlawful_monoids(draw):
    """A table on two or three elements, built with Monoid._trusted, whose
    laws fail."""
    n = draw(st.integers(2, 3))
    carrier = FinSet(["u%d" % i for i in range(n)])
    rows = tuple(tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
                 for _ in carrier)
    m = Monoid._trusted(carrier, draw(st.sampled_from(carrier.elements)), rows)
    assume(not laws_hold(m))
    return m


@given(SMALL_MONOIDS, SMALL_MONOIDS, st.data())
def test_hom_check_matches_the_scan(src, dst, data):
    assignment = drawn_assignment(data, src, dst)
    assert hom_verdict(src, dst, assignment) == hom_law_oracle(src, dst, assignment)


@given(unlawful_monoids(), SMALL_MONOIDS | unlawful_monoids(), st.booleans(), st.data())
def test_hom_check_matches_the_scan_on_unlawful_monoids(bad, other, flip, data):
    src, dst = (other, bad) if flip else (bad, other)
    assignment = drawn_assignment(data, src, dst)
    assert hom_verdict(src, dst, assignment) == hom_law_oracle(src, dst, assignment)


def homs_into(m):
    """Inclusions of m's submonoids, its identity and its constant hom."""
    homs = [incl for _, incl in enumerate_submonoids(m)]
    return homs + [identity_hom(m), constant_hom(m)]


def edits(h):
    """Name maps one edit away from the hom h: an element left out, sent
    outside h's target or to the next element of it, or a key outside h's
    source."""
    names = {b: h(b) for b in h.src.elements}
    yield dict(names, **{"?": h.dst.unit})
    for b in h.src.elements:
        yield {c: y for c, y in names.items() if c != b}
        yield dict(names, **{b: "?"})
        yield dict(names, **{b: bumped(h.dst.elements, names[b])})


@pytest.mark.parametrize("m", list(SAMPLES.values()) + [S4], ids=list(SAMPLES) + ["S4"])
def test_edited_homs_match_the_scan(m):
    for h in homs_into(m):
        for assignment in itertools.islice(edits(h), 40):
            assert (hom_verdict(h.src, m, assignment)
                    == hom_law_oracle(h.src, m, assignment))
