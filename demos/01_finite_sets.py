"""Finite sets as a cartesian closed category: products, exponentials,
currying, equalizers.  Everything is a table; every carrier is ordered."""

from galmon.finset import (FinSet, FinMap, product, exponential, curry, uncurry,
                           equalizer, hom_set)

X = FinSet(("0", "1"))
Y = FinSet(("a", "b", "c"))

P = product(Y, X)
print("product carrier:", P.elements)
assert len(P) == 6

E = exponential(X, Y)
print("exponential [X,Y] has", len(E), "elements, e.g.", E.elements[0])
assert len(E) == 3 ** 2

# a map out of the product and its transpose
f = FinMap(P, Y, {p: yx[0] for p, yx in P._pairs.items()})  # projection
g = curry(f)
print("curry of the projection sends a to", g("a"))
assert uncurry(g) == f

# currying is a bijection of hom sets
assert len(hom_set(P, Y)) == len(hom_set(Y, exponential(X, Y)))

# the equalizer of two maps is the subset where they agree
three = FinSet(("0", "1", "2"))
ident = FinMap.identity(three)
const = FinMap(three, three, {x: "0" for x in three})
Eq, incl = equalizer(ident, const)
print("equalizer of id and const-0:", Eq.elements)
assert Eq.elements == ("0",)

print("ok")
