import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import hom_set
from galmon.finset import (FinSet, FinMap, FinSetError, SizingError, singleton, product,
                           exponential, curry, equalizer, ARROW)


def fs(*xs):
    return FinSet(xs)


def test_elements_sorted():
    X = fs("b", "a", "c")
    assert X.elements == ("a", "b", "c")
    assert X.index("b") == 1
    assert "a" in X and "z" not in X


def test_duplicates_rejected():
    with pytest.raises(FinSetError):
        FinSet(("a", "a"))


def test_bad_symbols_rejected():
    for sym in ("a,b", "a" + ARROW + "b", "(a", "a)", "{a", "", 3):
        with pytest.raises(FinSetError):
            FinSet((sym,))


def test_bracketed_symbols_allowed():
    FinSet(("(a,b)", "{x" + ARROW + "y}"))


def test_map_total_and_contained():
    X, Y = fs("0", "1"), fs("a")
    with pytest.raises(FinSetError):
        FinMap(X, Y, {"0": "a"})
    with pytest.raises(FinSetError):
        FinMap(X, Y, {"0": "a", "1": "b"})
    with pytest.raises(FinSetError):
        FinMap(X, Y, {"0": "a", "1": "a", "2": "a"})


ABC = fs("a", "b", "c")
XY = fs("x", "y")


def uncurry(g):
    """The transpose Y x X -> Z of g: Y -> [X, Z], by evaluating each function element."""
    E = g.cod
    P = product(g.dom, E.base)
    return FinMap(P, E.target, {p: E.map_images(g(y))[E.base.index(x)]
                                for p, (y, x) in P._pairs.items()})


def maps_between(dom, cod):
    n = len(dom)
    return st.tuples(*[st.sampled_from(cod.elements)] * n).map(
        lambda images: FinMap(dom, cod, dict(zip(dom.elements, images))))


def test_product_counts():
    X, Y = fs("0", "1", "2"), fs("a", "b", "c", "d")
    assert len(product(X, Y)) == 12
    assert len(product(FinSet(), X)) == 0
    P = product(fs("a"), fs("0", "1"))
    assert P.elements == ("(a,0)", "(a,1)")
    assert P._pairs["(a,1)"] == ("a", "1")


def test_exponential_counts():
    two = fs("0", "1")
    assert len(exponential(two, two)) == 4
    assert len(exponential(FinSet(), ABC)) == 1
    assert len(exponential(ABC, singleton())) == 1


def test_exponential_decoding():
    two = fs("0", "1")
    E = exponential(two, ABC)
    e = E.map_element(("c", "a"))
    assert E.map_images(e) == ("c", "a")
    with pytest.raises(FinSetError):
        E.map_element(("c", "z"))
    with pytest.raises(FinSetError):
        ABC.map_images("a")


def test_curry_uncurry_exhaustive_two():
    # all 16 maps Y x X -> Z for |X|=|Y|=|Z|=2 round-trip through curry
    X, Y, Z = fs("0", "1"), fs("p", "q"), fs("u", "v")
    P = product(Y, X)
    maps = hom_set(P, Z)
    assert len(maps) == 16
    curried = [curry(f) for f in maps]
    assert len(set(tuple(map(c, c.dom)) for c in curried)) == 16
    assert len(hom_set(Y, exponential(X, Z))) == 16
    for f, c in zip(maps, curried):
        assert uncurry(c) == f
    for g in hom_set(Y, exponential(X, Z)):
        assert curry(uncurry(g)) == g


def test_curry_of_projection_is_constant():
    Y, X = fs("p", "q"), fs("0")
    P = product(Y, X)
    c = curry(FinMap(P, Y, {p: yx[0] for p, yx in P._pairs.items()}))
    for y in Y:
        assert c.cod.map_images(c(y)) == (y,)


@given(maps_between(product(ABC, XY), XY))
def test_curry_uncurry_roundtrip(f):
    assert uncurry(curry(f)) == f


def test_curry_needs_product():
    with pytest.raises(FinSetError):
        curry(FinMap(ABC, ABC, {x: x for x in ABC}))


def test_equalizer_examples():
    assert equalizer((0, 1), (0, 1)) == (0, 1)
    assert equalizer((0, 1), (1, 0)) == ()
    assert equalizer((0, 1, 2), (0, 0, 0)) == (0,)
    assert equalizer((), ()) == ()


def test_equalizer_mismatch():
    with pytest.raises(FinSetError):
        equalizer((0, 1, 2), (0, 1))


def test_equalizer_universal_property():
    # a map m of two points into the domain equalizes f and g exactly when
    # it factors through the positions where they agree, and then uniquely
    f, g = (0, 1, 0), (0, 1, 1)
    kept = equalizer(f, g)
    for m in itertools.product(range(3), repeat=2):
        lifts = [k for k in itertools.product(range(len(kept)), repeat=2)
                 if tuple(kept[q] for q in k) == m]
        assert len(lifts) == (tuple(f[p] for p in m) == tuple(g[p] for p in m))


def test_hom_set_counts_and_order():
    assert len(hom_set(fs("0", "1"), fs("0"))) == 1
    assert len(hom_set(fs("0"), fs("0", "1"))) == 2
    maps = hom_set(fs("0", "1", "2"), fs("0", "1"))
    assert len(maps) == 8
    assert tuple(map(maps[0], maps[0].dom)) == ("0", "0", "0")
    assert tuple(map(maps[-1], maps[-1].dom)) == ("1", "1", "1")


def test_hom_set_empty_domain():
    maps = hom_set(FinSet(), ABC)
    assert len(maps) == 1


def test_sizing_guards():
    big = FinSet(tuple("x%02d" % i for i in range(12)))
    nine = FinSet(tuple(str(i) for i in range(9)))
    with pytest.raises(SizingError):
        list(exponential(big, nine))


def test_exponential_refusal_names_guard_and_limit():
    big = FinSet(tuple("x%02d" % i for i in range(12)))
    nine = FinSet(tuple(str(i) for i in range(9)))
    with pytest.raises(SizingError) as exc:
        list(exponential(big, nine))
    assert str(exc.value) == "finset.exponential: 9^12 elements exceed the limit of 10000000"


def test_oversized_exponential_works_without_listing():
    # listing [big, nine] refuses, so each step below must do without it
    big = FinSet(tuple("x%02d" % i for i in range(12)))
    nine = FinSet(tuple(str(i) for i in range(9)))
    E = exponential(big, nine)
    assert len(E) == 9 ** 12
    images = tuple(str(i % 9) for i in range(12))
    e = E.map_element(images)
    assert e in E and E.map_images(e) == images
    Y = fs("p", "q")
    P = product(Y, big)
    f = FinMap(P, nine, {p: "4" if yx[0] == "q" else "3" for p, yx in P._pairs.items()})
    c = curry(f)
    assert c.cod == E and c.cod is not E
    assert c("q") == E.map_element(("4",) * 12)
    assert uncurry(c) == f
    with pytest.raises(SizingError):
        list(E)
    twenty = FinSet(tuple("y%02d" % i for i in range(20)))
    with pytest.raises(SizingError):
        product(exponential(twenty, twenty), twenty)  # 20^20: too many even for len()


def test_function_set_equality_and_membership():
    X, Z = fs("0", "1"), ABC
    E = exponential(X, Z)
    assert E == exponential(X, Z) and E != exponential(X, fs("a", "b"))
    assert E == FinSet(E.elements) and hash(E) == hash(FinSet(E.elements))
    assert "{0" + ARROW + "b,1" + ARROW + "c}" in exponential(X, Z)
    assert "{0" + ARROW + "b}" not in E
    assert exponential(FinSet(), ABC) == exponential(FinSet(), XY)
    assert exponential(ABC, FinSet()) == exponential(XY, FinSet())
    e = E.map_element(("a", "b"))
    assert E.elements[E.index(e)] == e
