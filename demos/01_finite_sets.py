"""Finite sets as a cartesian closed category: products, exponentials,
currying, equalizers.  Everything is a table; every carrier is ordered."""

from galmon.finset import FinSet, FinMap, product, exponential, curry, equalizer

X = FinSet(("0", "1"))
Y = FinSet(("a", "b", "c"))

P = product(Y, X)
print("product carrier:", P.elements)
assert len(P) == 6

E = exponential(X, Y)
print("exponential [X,Y] has", len(E), "elements, e.g.", E.elements[0])
assert len(E) == 3 ** 2

# a map out of the product and its transpose, which sends y to the constant map at y
f = FinMap(P, Y, {p: yx[0] for p, yx in P._pairs.items()})  # projection
g = curry(f)
print("curry of the projection sends a to", g("a"))
assert all(g.cod.map_images(g(y)) == (y,) * len(X) for y in Y)

# currying is a bijection of hom sets, counted without listing either
assert len(exponential(P, Y)) == len(exponential(Y, exponential(X, Y)))

# the equalizer of two maps, each its tuple of image indices, is the
# positions where they agree
three = FinSet(("0", "1", "2"))
ident, const = (0, 1, 2), (0, 0, 0)
kept = equalizer(ident, const)
print("equalizer of id and const-0:", [three.elements[k] for k in kept])
assert kept == (0,)

print("ok")
