import itertools
import time

import pytest
from hypothesis import given, strategies as st

import conftest
from conftest import (SAMPLES, check_restriction_coinduction_adjunction,
                      check_trivial_fixed_adjunction, coinduced_images, entries, hom_set,
                      identity_hom, maps_monoid,
                      transpose_from_coinduced, transpose_to_coinduced, underlying_site)
from test_acceptance import adjunction_instances
from galmon import actions, finset
from galmon.finset import FinSet, SizingError, singleton
from galmon.monoid import (MonoidHom, submonoid, trivial_monoid, enumerate_submonoids,
                           is_subgroup, is_hopf)
from galmon.actions import (MAction, ActionError, Site,
                            validate_action, trivial_action, free_action,
                            restrict_action, hom_tuples, coinduct,
                            coset_action, canonical_site, default_site)
from galmon import samples

Z2 = samples.cyclic(2)
Z3 = samples.cyclic(3)
E2 = samples.idempotent_pair()
S3 = samples.symmetric3()
SWAP = samples.swap_action()
NAT3 = samples.natural_action3()


def test_validate_good_actions():
    assert validate_action(SWAP) == []
    assert validate_action(free_action(Z2, singleton())) == []
    assert validate_action(trivial_action(S3, FinSet(("1", "2", "3")))) == []
    assert validate_action(NAT3) == []


def test_validate_names_violations():
    bad = MAction(Z2, FinSet(("0", "1")),
                  {("e", "0"): "1", ("e", "1"): "1",
                   ("g", "0"): "0", ("g", "1"): "1"})
    report = validate_action(bad)
    assert any("unit" in line and "0" in line for line in report)


def test_action_table_shape_errors():
    with pytest.raises(ActionError):
        MAction(Z2, FinSet(("0",)), {("e", "0"): "0"})
    with pytest.raises(ActionError):
        MAction(Z2, FinSet(("0",)), {("e", "0"): "0", ("g", "0"): "7"})
    with pytest.raises(ActionError) as exc:
        MAction(Z2, FinSet(("0",)), {("e", "0"): "0", ("g", "0"): "0", ("g", "1"): "0"})
    assert str(exc.value) == "action table mentions ('g', '1') outside the carrier"


def test_free_action():
    F1 = free_action(Z2, singleton())
    assert len(F1.carrier) == 2
    assert F1.apply("g", "(g,*)") == "(e,*)"
    assert len(free_action(S3, FinSet(("0", "1"))).carrier) == 12
    assert len(free_action(Z2, FinSet()).carrier) == 0


def test_trivial_action():
    E = trivial_action(Z2, FinSet(("0", "1")))
    assert E.apply("g", "0") == "0"
    assert E.carrier.elements == ("0", "1")
    assert E.is_trivial_action
    assert not SWAP.is_trivial_action


def test_restrict_action():
    ident = identity_hom(S3)
    assert restrict_action(ident, NAT3).table == NAT3.table
    one, incl1 = submonoid(S3, ("e",))
    assert restrict_action(incl1, NAT3).is_trivial_action
    c2, incl2 = submonoid(S3, ("e", "(12)"))
    R = restrict_action(incl2, NAT3)
    assert R.apply("(12)", "1") == "2" and R.apply("(12)", "3") == "3"
    with pytest.raises(ActionError):
        restrict_action(incl2, SWAP)  # SWAP is a Z2-action, not an S3-action


def test_restrict_composes():
    c2, incl = submonoid(S3, ("e", "(12)"))
    h = MonoidHom(Z2, S3, {"e": "e", "g": "(12)"})
    k = MonoidHom(Z2, c2, {"e": "e", "g": "(12)"})
    via_c2 = restrict_action(k, restrict_action(incl, NAT3))
    assert restrict_action(h, NAT3).table == via_c2.table


def test_hom_tuples_counts():
    for m in [Z2, Z3, S3]:
        F1 = free_action(m, singleton())
        assert len(hom_tuples(F1, F1)) == len(m.elements)
    point = trivial_action(Z2, singleton())
    assert hom_tuples(SWAP, point) == [(0, 0)]
    # a map out of SWAP into a trivial action sends both points to one
    assert hom_tuples(SWAP, trivial_action(Z2, FinSet(("0", "1")))) == [(0, 0), (1, 1)]


def test_hom_tuples_free_to_any():
    # the free-forgetful adjunction: maps F(1) -> M match points of M
    for M in [SWAP, trivial_action(Z2, FinSet(("a", "b", "c")))]:
        F1 = free_action(Z2, singleton())
        assert len(hom_tuples(F1, M)) == len(M.carrier)


def test_hom_tuples_canonical_order():
    assert hom_tuples(SWAP, SWAP) == [(0, 1), (1, 0)]


def test_hom_tuples_refuses_actions_of_different_monoids():
    for M, N in [(NAT3, SWAP), (SWAP, NAT3)]:
        with pytest.raises(ActionError) as exc:
            hom_tuples(M, N)
        assert str(exc.value) == ("actions.hom_tuples: source and target act for "
                                  "different monoids")


def fixed_points(M):
    """The points of M fixed by every element, as the maps into M from the
    one-point trivial action (trivial action -| fixed points)."""
    one = trivial_action(M.monoid, singleton())
    return [M.carrier.elements[y] for (y,) in hom_tuples(one, M)]


def test_fixed_points():
    assert fixed_points(SWAP) == []
    assert fixed_points(trivial_action(Z2, FinSet(("0", "1")))) == ["0", "1"]
    assert fixed_points(NAT3) == []
    c2, i2 = submonoid(S3, ("e", "(12)"))
    assert fixed_points(restrict_action(i2, NAT3)) == ["3"]


def test_trivial_fixed_adjunction_sizes():
    one = singleton()
    M = trivial_action(Z2, FinSet(("0", "1")))
    assert hom_tuples(trivial_action(Z2, one), M) == [(0,), (1,)]
    assert hom_tuples(trivial_action(Z2, one), SWAP) == []
    empty = FinSet()
    assert hom_tuples(trivial_action(Z2, empty), SWAP) == [()]


def test_trivial_fixed_adjunction():
    one = singleton()
    assert check_trivial_fixed_adjunction(Z2, one, trivial_action(Z2, FinSet(("0", "1"))))
    assert check_trivial_fixed_adjunction(Z2, one, SWAP)
    assert check_trivial_fixed_adjunction(Z2, FinSet(), SWAP)
    assert check_trivial_fixed_adjunction(S3, FinSet(("0", "1")), NAT3)
    assert check_trivial_fixed_adjunction(E2, FinSet(("0", "1")),
                                          free_action(E2, singleton()))


def points(n):
    return FinSet(tuple("p%d" % i for i in range(n)))


def test_trivial_fixed_adjunction_takes_only_eight_maps_of_x():
    # X -> X has 8^8 maps, past the limit; naturality spot-checks 8 of them
    assert check_trivial_fixed_adjunction(Z2, points(8), SWAP)
    assert check_trivial_fixed_adjunction(Z2, points(8), trivial_action(Z2, FinSet(("0", "1"))))


def test_trivial_fixed_adjunction_on_seven_points_is_quick():
    start = time.perf_counter()
    assert check_trivial_fixed_adjunction(Z2, points(7), SWAP)
    assert check_trivial_fixed_adjunction(Z2, points(7), trivial_action(Z2, FinSet(("0", "1"))))
    assert time.perf_counter() - start < 0.5


def test_coinduct_along_identity():
    K = coinduct(identity_hom(Z2), SWAP)
    assert len(K.carrier) == len(SWAP.carrier)
    assert validate_action(K) == []
    assert check_restriction_coinduction_adjunction(identity_hom(Z2), SWAP, SWAP)


def test_coinduct_from_trivial_monoid():
    # coinduction of a bare set along 1 -> A is all maps A -> X,
    # translated on the right
    one = trivial_monoid()
    h = MonoidHom(one, Z2, {"e": "e"})
    X = trivial_action(one, FinSet(("0", "1")))
    K = coinduct(h, X)
    assert len(K.carrier) == 4
    at, E = Z2.carrier.index, finset.exponential(Z2.carrier, X.carrier)  # E decodes K's labels
    for e in K.carrier:
        for a in Z2.elements:
            moved = E.map_images(K.apply(a, e))
            for a2 in Z2.elements:
                assert moved[at(a2)] == E.map_images(e)[at(Z2.mul(a2, a))]


def test_coinduct_refuses_a_non_action():
    # g is constant, so (gg).1 = 1 but g.(g.1) = 0
    h = MonoidHom(Z2, S3, {"e": "e", "g": "(12)"})
    N = MAction(Z2, FinSet(("0", "1")), {("e", "0"): "0", ("e", "1"): "1",
                                         ("g", "0"): "0", ("g", "1"): "0"})
    with pytest.raises(ActionError) as exc:
        coinduct(h, N)
    assert str(exc.value) == ("actions.coinduct: N is not an action: "
                              "associativity fails at (g, g, 1): 1 vs 0")


def test_coinduct_names_a_mismatch_of_monoids():
    h = MonoidHom(Z2, S3, {"e": "e", "g": "(12)"})
    with pytest.raises(ActionError) as exc:
        coinduct(h, NAT3)  # an S3-action, not a Z2-action
    assert str(exc.value) == "actions.hom_tuples: source and target act for different monoids"


def test_coinduct_singleton():
    h = MonoidHom(Z2, S3, {"e": "e", "g": "(12)"})
    K = coinduct(h, trivial_action(Z2, singleton()))
    assert len(K.carrier) == 1


def test_coinduct_adjunction():
    h = MonoidHom(Z2, S3, {"e": "e", "g": "(12)"})
    N = SWAP
    assert check_restriction_coinduction_adjunction(h, NAT3, N)
    K = coinduct(h, N)
    assert len(K.carrier) == 8
    images = coinduced_images(h, N, K)
    at = {t: q for q, t in enumerate(images)}
    # (12) fixes 3 and SWAP fixes nothing, so NAT3 has no maps; F(1) has 2^3
    for M, count in [(NAT3, 0), (free_action(S3, singleton()), 8)]:
        assert check_restriction_coinduction_adjunction(h, M, N)
        lhs = hom_tuples(restrict_action(h, M), N)
        mates = [transpose_to_coinduced(h, M, f, at) for f in lhs]
        assert len(lhs) == count and sorted(mates) == hom_tuples(M, K)
        assert [transpose_from_coinduced(h, g, images) for g in mates] == lhs


def dropping_the_last_map(monkeypatch):
    """Make every hom set of two or more maps lose its last one."""
    read_off = actions.hom_tuples

    def dropped(M, N):
        homs = read_off(M, N)
        return homs[:-1] if len(homs) > 1 else homs

    monkeypatch.setattr(actions, "hom_tuples", dropped)


def test_adjunction_checks_flag_a_dropped_map(monkeypatch):
    h = MonoidHom(Z2, S3, {"e": "e", "g": "(12)"})
    dropping_the_last_map(monkeypatch)
    assert check_trivial_fixed_adjunction(S3, FinSet(("0", "1")),
                                          trivial_action(S3, FinSet(("a", "b")))) is False
    F1 = free_action(S3, singleton())
    assert check_restriction_coinduction_adjunction(h, F1, SWAP) is False


def test_adjunction_checks_return_a_verdict_on_every_sweep_instance_under_a_dropped_map(
        monkeypatch):
    dropping_the_last_map(monkeypatch)
    verdicts = [(check_trivial_fixed_adjunction(A, X, M),
                 check_restriction_coinduction_adjunction(h, M, N))
                for A, X, M, h, N in adjunction_instances()]
    assert {v for pair in verdicts for v in pair} == {True, False}
    # the other 34 shorten only an endomorphism spot list, or no hom set at all
    assert sum(not (a and b) for a, b in verdicts) == 16


def test_restriction_coinduction_check_flags_a_wrong_transpose(monkeypatch):
    h = MonoidHom(Z2, S3, {"e": "e", "g": "(12)"})
    F1 = free_action(S3, singleton())
    assert check_restriction_coinduction_adjunction(h, F1, SWAP)
    first = hom_tuples(restrict_action(h, F1), SWAP)[0]
    def perturbed(h, M, f, at):
        g = transpose_to_coinduced(h, M, f, at)
        return ((g[0] + 1) % len(at),) + g[1:] if f == first else g

    monkeypatch.setattr(conftest, "transpose_to_coinduced", perturbed)
    assert check_restriction_coinduction_adjunction(h, F1, SWAP) is False


def checked(M):
    """The same table through the constructor that checks it."""
    return MAction(M.monoid, M.carrier, entries(M))


@pytest.mark.parametrize("m", list(SAMPLES.values()), ids=list(SAMPLES))
def test_package_built_actions_equal_checked_ones(m):
    built = [trivial_action(m, FinSet(("p", "q"))), free_action(m, FinSet(("x", "y")))]
    for S, incl in enumerate_submonoids(m):
        built += [restrict_action(incl, free_action(m, singleton())),
                  coinduct(incl, free_action(S, singleton()))]
        if is_hopf(m) and is_subgroup(m, S.elements):
            built.append(coset_action(m, S.elements))
    for M in built:
        C = checked(M)
        assert M == C and hash(M) == hash(C)


def test_site_builders():
    assert canonical_site(Z2, "free+trivial").names == ("F(1)", "E(1)")
    site = canonical_site(S3, "cosets")
    assert site.nobj == 6
    assert len(list(canonical_site(Z3, "free").iter_hom_tuples(0, 0))) == 3


def test_site_cosets_requires_group():
    with pytest.raises(ActionError):
        canonical_site(E2, "cosets")
    with pytest.raises(ActionError):
        canonical_site(Z2, "nonsense")


def test_coset_action():
    C = coset_action(S3, ("e", "(12)"))
    assert len(C.carrier) == 3
    assert "{(12),e}" in C.carrier
    assert C.apply("(13)", "{(12),e}") == "{(123),(13)}"
    assert validate_action(C) == []


def test_default_site():
    site = default_site(S3)
    assert site.names == ("G/{e}", "G/{(12),e}", "G/{(13),e}", "G/{(23),e}",
                          "G/{(123),(132),e}", "G/{(12),(123),(13),(132),(23),e}",
                          "F(1)")
    assert default_site(E2).names == ("F(1)", "E(1)")


def test_site_cells_count_against_the_limit_before_any_object_is_built(monkeypatch):
    # Z3 on F(1), E(1) and a 2-point custom object: 3 * (3 + 1 + 2) cells
    custom = (("two", trivial_action(Z3, FinSet(("0", "1")))),)
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 18)
    assert len(canonical_site(Z3, "free+trivial+custom", custom=custom).objects) == 3
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 17)
    monkeypatch.setattr(actions, "free_action", lambda *args: pytest.fail("F(1) was built"))
    with pytest.raises(SizingError) as exc:
        canonical_site(Z3, "free+trivial+custom", custom=custom)
    assert str(exc.value) == "actions.canonical_site: 18 table cells exceed the limit of 17"


def test_s5_default_site_passes_the_cell_guard_at_its_exact_count(monkeypatch):
    # 120 * (the 120 / |H| cosets of each of 156 subgroups H, and F(1))
    s5 = maps_monoid(list(itertools.permutations(range(5))))
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 533_399)
    with pytest.raises(SizingError, match="^actions.canonical_site: 533400 table cells "):
        default_site(s5)
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 533_400)
    assert len(default_site(s5).objects) == 157


def test_s6_default_site_is_refused_before_any_coset_action_is_built(monkeypatch):
    s6 = maps_monoid(list(itertools.permutations(range(6))))
    monkeypatch.setattr(actions, "coset_action", lambda *args: pytest.fail("G/H was built"))
    with pytest.raises(SizingError) as exc:
        default_site(s6)
    assert str(exc.value) == ("actions.canonical_site: 120568320 table cells exceed "
                              "the limit of 10000000")


def test_every_coset_object_of_s4_is_built_by_coset_action(monkeypatch):
    # canonical_site lists only subgroups, builds each G/H through the
    # module's coset_action and marks it built; Site then trusts it
    built, calls = actions.coset_action, []
    monkeypatch.setattr(actions, "coset_action", lambda m, sub: calls.append(sub) or built(m, sub))
    site = default_site(conftest.S4)
    assert len(calls) == 30 and site.nobj == 31
    assert site.names[:30] == tuple("G/{%s}" % ",".join(sub) for sub in calls)
    assert all(act._built for act in site.objects)


def test_site_rejects_bad_input():
    with pytest.raises(ActionError):
        Site(Z2, [("a", SWAP), ("a", SWAP)])
    with pytest.raises(ActionError):
        Site(S3, [("a", SWAP)])
    bad = MAction._trusted(Z2, FinSet(("0", "1")), ((0, 0),) * len(Z2))
    with pytest.raises(ActionError):
        Site(Z2, [("bad", bad)])


def test_custom_site_objects():
    site = canonical_site(Z2, "trivial+custom", custom=(("swap", SWAP),))
    assert site.names == ("E(1)", "swap")
    assert site.objects[1] is SWAP


def test_underlying_site():
    site = canonical_site(Z2, "free+trivial")
    base, ob_map = underlying_site(site)
    assert base.monoid.elements == ("e",)
    assert [len(base.objects[i].carrier) for i in range(base.nobj)] == [1, 2]
    assert [base.objects[g].carrier for g in ob_map] == [o.carrier for o in site.objects]


def test_lazy_hom_pairs():
    X = FinSet(tuple("x%d" % i for i in range(7)))
    site = Site(trivial_monoid(), [("a", trivial_action(trivial_monoid(), X)),
                                   ("b", trivial_action(trivial_monoid(), X)),
                                   ("0", trivial_action(trivial_monoid(), FinSet(())))])
    first = next(site.iter_hom_tuples(0, 1))
    assert first == (0,) * 7
    # the empty object has one map out, to everything, and none in from X
    assert [list(site.iter_hom_tuples(2, j)) for j in range(3)] == [[()]] * 3
    assert list(site.iter_hom_tuples(0, 2)) == []


@given(st.sampled_from([Z2, Z3, E2]), st.integers(0, 2))
def test_free_actions_are_lawful(m, k):
    X = FinSet(tuple(str(i) for i in range(k)))
    assert validate_action(free_action(m, X)) == []
    assert validate_action(trivial_action(m, X)) == []


@given(st.data())
def test_hom_tuples_against_filter_oracle(data):
    M = data.draw(st.sampled_from([SWAP, free_action(Z2, singleton()),
                                   trivial_action(Z2, FinSet(("0", "1")))]))
    N = data.draw(st.sampled_from([SWAP, trivial_action(Z2, FinSet(("a",))),
                                   free_action(Z2, singleton())]))
    slow = [tuple(N.carrier.index(f(x)) for x in M.carrier)
            for f in hom_set(M.carrier, N.carrier)
            if all(f(M.apply(a, x)) == N.apply(a, f(x))
                   for a in Z2.elements for x in M.carrier)]
    assert hom_tuples(M, N) == slow
