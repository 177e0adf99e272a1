import itertools
import json
import os

import pytest
from hypothesis import given, strategies as st

import conftest
from conftest import (SiteFunctor, augmentation_square_check, band_monoids, extend_with_trivials,
                      generated_inclusion, reconstruction_composite_check,
                      reconstruction_hom_oracle, restrict_end, transformation_monoids)
from galmon.finset import FinSet, SizingError, product
from galmon.monoid import Monoid, enumerate_submonoids, is_hopf, kernel_pairs, trivial_monoid
from galmon.actions import (ActionError, MAction, Site, trivial_action, free_action,
                            canonical_site, default_site, coset_action)
from galmon.ends import (EndError, EndObject, ForgetfulDiagram, _is_free, internal_nat,
                         end_of_forgetful, end_monoid, reconstruction_hom,
                         trivial_path, family_restriction)
from galmon.galois import GaloisError, Subfunctor, invariants
from galmon import ends, finset, galois, samples
from galmon.cli import parse_monoid

Z2 = samples.cyclic(2)
Z3 = samples.cyclic(3)
E2 = samples.idempotent_pair()
S3 = samples.symmetric3()
SWAP = samples.swap_action()
FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def free_site(m):
    return canonical_site(m, "free")


def test_end_over_point_site():
    site = canonical_site(Z2, "trivial")
    end = end_of_forgetful(site)
    assert len(end) == 1
    assert end_monoid(end).elements == (end.unit(),)


def test_an_end_of_families_and_its_monoid_have_reprs():
    end = end_of_forgetful(default_site(S3))
    assert end.carrier.elements == tuple(sorted(end.families))
    fams = ",".join(map(str, end.carrier))
    assert repr(end.carrier) == "FinSet{%s}" % fams
    assert repr(end_monoid(end)) == "Monoid(%s; unit=%s)" % (fams, end.unit())


def test_end_sizes_over_free_site():
    assert len(end_of_forgetful(free_site(Z2))) == 2
    assert len(end_of_forgetful(free_site(S3))) == 6
    assert len(end_of_forgetful(free_site(E2))) == 2


def test_end_over_empty_site():
    end = end_of_forgetful(Site(Z2, []))
    assert len(end) == 1
    assert len(end_monoid(end).elements) == 1


def test_end_monoid_is_group_for_s3():
    E = end_monoid(end_of_forgetful(free_site(S3)))
    assert len(E.elements) == 6 and is_hopf(E)


def test_wedge_condition_holds_post_hoc():
    site = default_site(Z2)
    end = end_of_forgetful(site)
    U = end.V
    for fam in end.families:
        for i, j in itertools.product(range(site.nobj), repeat=2):
            for f in site.iter_hom_tuples(i, j):
                Vf, Wf = U.mor(i, j, f), U.mor(i, j, f)
                for p in range(len(U.obs[i])):
                    assert Wf[fam[i][p]] == fam[j][Vf[p]]


def test_projections_are_monoid_homs():
    site = default_site(Z2)
    end = end_of_forgetful(site)
    E = end_monoid(end)
    for i in range(site.nobj):
        for ef in E.elements:
            for eg in E.elements:
                assert E.mul(ef, eg)[i] == tuple(ef[i][q] for q in eg[i])
        assert E.unit[i] == tuple(range(len(end.V.obs[i])))


def test_reconstruction_trivial_monoid():
    one = trivial_monoid()
    site = canonical_site(one, "free")
    rho = reconstruction_hom(one, end_of_forgetful(site))
    assert rho == (0,)


def test_reconstruction_is_iso_over_free_site():
    for m in [Z2, Z3, E2, S3]:
        end = end_of_forgetful(free_site(m))
        rho = reconstruction_hom(m, end)
        assert sorted(rho) == list(range(len(end))) == list(range(len(m)))
        assert reconstruction_composite_check(m, end)


def test_reconstruction_injective_with_free_object_present():
    end = end_of_forgetful(default_site(S3))
    rho = reconstruction_hom(S3, end)
    assert len(set(rho)) == len(S3)
    assert reconstruction_composite_check(S3, end)


def test_reconstruction_kernel_without_free_object():
    # over the single coset object G/A3, only the parity of a permutation acts
    a3 = ("e", "(123)", "(132)")
    site = Site(S3, [("G/A3", coset_action(S3, a3))])
    end = end_of_forgetful(site)
    assert len(end) == 2
    rho = reconstruction_hom(S3, end)
    assert len(set(rho)) == 2
    kernel = {frozenset(p) for p in kernel_pairs(S3.elements, rho)}
    assert len(kernel) == 6
    assert frozenset(("(123)", "(132)")) in kernel
    assert frozenset(("(12)", "(13)")) in kernel
    assert frozenset(("e", "(12)")) not in kernel


def test_reconstruction_checks_the_action_law_of_its_source():
    # Z2's elements with g idempotent: g's family is the swap, whose square
    # is the identity family, not g's own
    idem = Monoid(Z2.carrier, "e", {("e", "e"): "e", ("e", "g"): "g",
                                    ("g", "e"): "g", ("g", "g"): "g"})
    with pytest.raises(EndError, match="not a monoid map"):
        reconstruction_hom(idem, end_of_forgetful(free_site(Z2)))


def outcome(route, m, end):
    """What route(m, end) returns, or the message of the EndError it raises."""
    try:
        return route(m, end)
    except EndError as exc:
        return str(exc)


def opposite(m):
    """m with its products reversed: a monoid on the same elements, acting
    through the same rows, that breaks the action law unless m commutes."""
    return Monoid(m.carrier, m.unit, {(a, b): m.mul(b, a) for a in m.elements
                                      for b in m.elements})


def reconstructs_as_the_oracle(m, X):
    """Over sites with the checked object X, with and without the free
    object, the reconstruction maps of m and of its opposite are the checked
    oracle's, refusals included."""
    for recipe in ("trivial+custom", "free+custom"):
        end = end_of_forgetful(canonical_site(m, recipe, custom=[("X", X)]))
        assert reconstruction_hom(m, end) == reconstruction_hom_oracle(m, end)
        op = opposite(m)
        assert (outcome(reconstruction_hom, op, end)
                == outcome(reconstruction_hom_oracle, op, end))


def left_ideal(m, b):
    """m acting by left multiplication on m.b, read through the checked constructor."""
    ideal = FinSet({m.mul(a, b) for a in m.elements})
    return MAction(m, ideal, {(a, x): m.mul(a, x) for a in m.elements for x in ideal})


@given(transformation_monoids())
def test_reconstruction_is_the_checked_oracle_on_transformation_monoids(drawn):
    m, act, _ = drawn
    reconstructs_as_the_oracle(m, act)


@given(band_monoids(), st.data())
def test_reconstruction_is_the_checked_oracle_on_bands(m, data):
    reconstructs_as_the_oracle(m, left_ideal(m, data.draw(st.sampled_from(m.elements))))


def test_reconstruction_trusts_the_site_s_proof_of_the_action_law(monkeypatch):
    checked = []
    monkeypatch.setattr(ends, "acts_along", lambda *args: checked.append(args[0]) or True)
    site = canonical_site(S3, "cosets+free+custom", custom=[("X", samples.natural_action3())])
    end = end_of_forgetful(site)
    assert reconstruction_hom(S3, end) == reconstruction_hom_oracle(S3, end)
    assert checked == []
    op = opposite(S3)
    reconstruction_hom(op, end)
    assert checked and set(checked) == {op}


def test_a_site_refuses_an_object_that_is_not_an_action_before_any_end():
    # E2's z acting as the swap: z.(z.0) = 0, but zz = z sends 0 to 1
    swap = MAction(E2, FinSet(("0", "1")), {("e", "0"): "0", ("e", "1"): "1",
                                            ("z", "0"): "1", ("z", "1"): "0"})
    with pytest.raises(ActionError) as exc:
        end_of_forgetful(canonical_site(E2, "free+custom", custom=[("X", swap)]))
    assert str(exc.value) == ("site object 'X' is not an action: "
                              "associativity fails at (z, z, 0): 1 vs 0")


def presented_free(X):
    """Free on one point by the presentation: one generating point, |A| points."""
    return len(X._presentation()[0]) == 1 and len(X.carrier) == len(X.monoid)


def test_the_column_test_finds_the_free_objects_of_the_samples():
    objects = [samples.natural_action3(), SWAP]
    for m in [*conftest.SAMPLES.values(), conftest.S4, conftest.T3]:
        objects.extend(default_site(m).objects)
        objects.append(free_action(m, FinSet(("x", "y"))))
    assert any(map(_is_free, objects)) and not all(map(_is_free, objects))
    assert [_is_free(X) for X in objects] == [presented_free(X) for X in objects]


@given(st.one_of(transformation_monoids().map(lambda drawn: drawn[:2]),
                 band_monoids().flatmap(lambda m: st.tuples(
                     st.just(m), st.sampled_from(m.elements).map(lambda b: left_ideal(m, b))))))
def test_the_column_test_finds_the_free_objects_of_generated_actions(drawn):
    m, X = drawn
    for Y in (X, *default_site(m).objects, trivial_action(m, FinSet(("x", "y")))):
        assert _is_free(Y) == presented_free(Y)


def test_restrict_end_along_identity():
    site = default_site(Z2)
    end = end_of_forgetful(site)
    r = restrict_end(end, SiteFunctor(site, site, tuple(range(site.nobj))), end)
    assert r == tuple(range(len(end)))


def test_restrict_end_to_one_object_is_that_projection():
    site = canonical_site(Z2, "free+trivial")
    end = end_of_forgetful(site)
    sub = Site(Z2, [("F(1)", site.objects[site.names.index("F(1)")])])
    sub_end = end_of_forgetful(sub)
    r = restrict_end(end, SiteFunctor(sub, site, (0,)), sub_end)
    for e, k in zip(end.carrier, r):
        assert sub_end.carrier.elements[k] == (e[0],)


def test_restrict_end_composes():
    A = canonical_site(Z2, "free+trivial+custom", custom=(("sw", SWAP),))
    B = Site(Z2, list(zip(A.names[:2], A.objects[:2])))
    C = Site(Z2, [(A.names[0], A.objects[0])])
    endA, endB, endC = (end_of_forgetful(s) for s in (A, B, C))
    rBA = restrict_end(endA, SiteFunctor(B, A, (0, 1)), endB)
    rCB = restrict_end(endB, SiteFunctor(C, B, (0,)), endC)
    rCA = restrict_end(endA, SiteFunctor(C, A, (0,)), endC)
    assert tuple(map(rCB.__getitem__, rBA)) == rCA


def test_trivial_path_lands_on_unit():
    site = default_site(Z2)
    end = end_of_forgetful(site)
    path = trivial_path(Z2, end)
    unit = end_monoid(end).unit
    assert [end.carrier.elements[k] for k in path] == [unit] * len(Z2)


def test_extend_with_trivials():
    site = canonical_site(Z2, "free+trivial")
    extended, base, into, down = extend_with_trivials(site)
    assert extended.nobj == 3
    assert extended.names[:2] == site.names
    assert into == (1, 2)
    assert down == (1, 0, 1)
    again, _, _, _ = extend_with_trivials(extended)
    assert again.nobj == 3


def test_augmentation_square():
    assert augmentation_square_check(trivial_monoid(), default_site(trivial_monoid()))
    assert augmentation_square_check(Z2, default_site(Z2))
    assert augmentation_square_check(E2, default_site(E2))


@pytest.mark.parametrize("fixture, objects", [("s3.json", 13), ("s4.json", 61)])
def test_augmentation_square_curries_each_projection_once(fixture, objects, monkeypatch):
    # the curried projection A x X -> X does not depend on the element: on
    # S4's default site it was built 24 * 61 = 1464 times
    with open(os.path.join(FIXTURES, fixture)) as fd:
        m = parse_monoid(json.load(fd))
    site = default_site(m)
    assert extend_with_trivials(site)[0].nobj == objects
    calls, curry = [], conftest.curry

    def counted(f):
        calls.append(f)
        return curry(f)

    monkeypatch.setattr(conftest, "curry", counted)
    assert augmentation_square_check(m, site)
    assert len(calls) == objects


def test_augmentation_square_checks_that_the_carrier_unit_restricts_to_the_unit(monkeypatch):
    # End[carriers] has one family, so a restriction into End[U] that sends
    # it to g's family still comes back to the identity, and the trivial
    # path reads End[U]'s unit itself: only the unit identity fails
    site = default_site(Z2)
    extended, base, into, down = extend_with_trivials(site)
    end_up, end_base = end_of_forgetful(extended), end_of_forgetful(base)
    assert len(end_base) == 1
    g = next(k for k, fam in enumerate(end_up.carrier) if fam != end_up.unit())
    unit = end_up.carrier.index(end_up.unit())

    def skewed(end, functor, target_end):
        r = restrict_end(end, functor, target_end)
        return (g,) * len(r) if functor.src == extended else r

    to_up = skewed(end_base, SiteFunctor(extended, base, down), end_up)
    back = skewed(end_up, SiteFunctor(base, extended, into), end_base)
    assert tuple(map(back.__getitem__, to_up)) == (0,)
    assert to_up[0] != unit
    assert trivial_path(Z2, end_up) == (unit,) * len(Z2)
    assert augmentation_square_check(Z2, site)
    monkeypatch.setattr(conftest, "restrict_end", skewed)
    assert not augmentation_square_check(Z2, site)


def test_site_functor_checks_morphisms():
    # swap and the trivial two-point action share a carrier, but the swap
    # self-morphisms are not all morphisms of the trivial object pair's site
    sw = Site(Z2, [("sw", SWAP)])
    tv = Site(Z2, [("tv", trivial_action(Z2, FinSet(("0", "1"))))])
    SiteFunctor(sw, tv, (0,))  # into an all-maps hom set: fine
    with pytest.raises(EndError):
        SiteFunctor(tv, sw, (0,))
    with pytest.raises(EndError):
        SiteFunctor(sw, free_site(Z2), (0,))  # carrier mismatch
    with pytest.raises(EndError):
        SiteFunctor(sw, tv, (0, 0))


def test_restrict_end_rejects_wrong_site():
    end = end_of_forgetful(free_site(Z2))
    sub = Site(Z2, [("F(1)", free_site(Z2).objects[0])])
    f = SiteFunctor(sub, free_site(Z2), (0,))
    other = end_of_forgetful(free_site(Z3))
    with pytest.raises(EndError):
        restrict_end(other, f, end_of_forgetful(sub))


def test_internal_nat_rejects_mismatched_sites():
    U = ForgetfulDiagram(free_site(Z2))
    W = ForgetfulDiagram(free_site(Z3))
    with pytest.raises(EndError):
        internal_nat(U, W)


def test_subset_diagram_escape():
    site = canonical_site(Z2, "free+trivial")
    U = ForgetfulDiagram(site)
    # a trusted mask of (e,*) in F(1) and * in E(1): the swap moves (e,*) out
    sub = Subfunctor._trusted(site, 0b101)
    assert sub.components == {"F(1)": ("(e,*)",), "E(1)": ("*",)}
    with pytest.raises(EndError, match="not closed under the site morphisms"):
        internal_nat(sub, U)
    with pytest.raises(GaloisError, match="'zzz' is not in site object 'F"):
        Subfunctor(site, {"F(1)": ("zzz",)})


def test_sizing_guard_per_object(monkeypatch):
    # the free object's 36 table cells are refused as the site is built
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 10)
    with pytest.raises(SizingError):
        end_of_forgetful(free_site(S3))


def test_sizing_guard_family_product(monkeypatch):
    swap2 = MAction(Z2, FinSet(("a", "b")),
                    {("e", "a"): "a", ("e", "b"): "b",
                     ("g", "a"): "b", ("g", "b"): "a"})
    site = Site(Z2, [("sw", SWAP), ("sw2", swap2)])
    U = ForgetfulDiagram(site)
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 16)
    assert len(end_of_forgetful(site)) == 2  # read off a free object, with no search
    with pytest.raises(SizingError):
        internal_nat(U, U)  # the search it replaces makes 42 units of work
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 42)
    assert len(internal_nat(U, U)) == 2


def test_refusals_name_layer_count_and_limit():
    big = FinSet(tuple("x%04d" % i for i in range(4000)))
    with pytest.raises(SizingError) as exc:
        product(big, big)
    assert str(exc.value) == "finset.product: 4000 x 4000 elements exceed the limit of 10000000"


def test_monoid_needs_self_hom_end():
    site = default_site(Z2)
    end = end_of_forgetful(site)
    cut, target = family_restriction(end, Subfunctor.empty(site))
    with pytest.raises(EndError):
        end_monoid(target)


def test_family_restriction_full_and_empty():
    site = default_site(Z2)
    end = end_of_forgetful(site)
    cut, target = family_restriction(end, Subfunctor.full(site))
    assert cut == tuple(range(len(end))) and len(target) == len(end)
    cut, target = family_restriction(end, Subfunctor.empty(site))
    assert len(target) == 1
    assert cut == (0,) * len(end)


def test_family_restriction_refuses_a_cut_family_missing_from_the_end(monkeypatch):
    site = default_site(S3)
    end = end_of_forgetful(site)
    V = invariants(generated_inclusion(S3, "(12)"), site)
    cut, target = family_restriction(end, V)
    internal = ends.internal_nat

    def dropping(V, W):  # the end of [V, U] less the inclusion, which the unit restricts to
        found = internal(V, W)
        return EndObject(found.site, V, W, [f for f in found.families if f != V._embed])

    monkeypatch.setattr(ends, "internal_nat", dropping)
    assert len(dropping(V, end.W)) == len(target) - 1
    with pytest.raises(EndError) as exc:
        family_restriction(end, V)
    assert str(exc.value) == "a restricted family fails the wedge condition"


@pytest.mark.parametrize("m", list(conftest.SAMPLES.values()) + [conftest.S4],
                         ids=list(conftest.SAMPLES) + ["S4"])
def test_the_end_route_of_stab_restricts_as_family_restriction_does(m, monkeypatch):
    # stabilizer_via_end cuts End[U]'s families down to V in place; the checked
    # map into the listed end of [V, U] is the oracle of what it equalizes
    site = default_site(m)
    end = end_of_forgetful(site)
    rho, path = reconstruction_hom(m, end), trivial_path(m, end)
    compared = []
    monkeypatch.setattr(galois, "equalizer", lambda f, g: compared.append((f, g))
                        or finset.equalizer(f, g))
    subs = [Subfunctor.empty(site), Subfunctor.full(site)]
    subs += [invariants(incl, site) for _, incl in enumerate_submonoids(m)]
    for V in subs:
        cut, target = family_restriction(end, V)
        fams = target.carrier.elements
        assert galois.stabilizer_via_end(V).elements == galois.stabilizer(V)[0].elements
        assert compared.pop() == ([fams[cut[k]] for k in rho], [fams[cut[k]] for k in path])


def test_family_restriction_components():
    site = default_site(S3)
    end = end_of_forgetful(site)
    cut, target = family_restriction(end, Subfunctor.full(site))
    for e, k in zip(end.carrier, cut):
        for i in range(site.nobj):
            assert target.carrier.elements[k][i] == e[i]
