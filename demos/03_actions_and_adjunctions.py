"""Monoid actions and the two adjunctions around them: trivial action -|
fixed points, and restriction -| coinduction along a monoid map.  Each
equivariant map is its tuple of image indices."""

from galmon.finset import FinSet, singleton
from galmon.monoid import MonoidHom, submonoid
from galmon.actions import trivial_action, free_action, restrict_action, hom_tuples, coinduct
from galmon import samples

s3 = samples.symmetric3()
nat = samples.natural_action3()

# restricting the natural action to the subgroup generated by (12)
c2, incl = submonoid(s3, ("e", "(12)"))
r = restrict_action(incl, nat)
print("(12) acting on 1:", r.apply("(12)", "1"))

# trivial action -| fixed points: the maps out of the trivial action on X
# are the maps X -> Fix(r), so those out of one point are the fixed points
fixed = hom_tuples(trivial_action(c2, singleton()), r)
print("fixed points of the restricted action:", [r.carrier.elements[y] for (y,) in fixed])
assert fixed == [(2,)]
X = FinSet(("p", "q"))
assert hom_tuples(trivial_action(c2, X), r) == [(2, 2)]
print("E -| Gamma: the one map {p,q} -> Fix is the one equivariant map out")

# equivariant maps out of the free action on one generator = points
F1 = free_action(s3, singleton())
maps = hom_tuples(F1, nat)
print("maps F(1) -> natural action, as image indices:", maps[:2], "...")
assert len(maps) == len(nat.carrier)

# restriction -| coinduction for Z2 -> S3 via (12): the maps restrict(M) -> N
# match the maps M -> coinduct(N)
z2 = samples.cyclic(2)
h = MonoidHom(z2, s3, {"e": "e", "g": "(12)"})
N = samples.swap_action()
K = coinduct(h, N)
print("coinduced carrier has", len(K.carrier), "elements, e.g.")
print("  ", K.carrier.elements[0])
assert len(K.carrier) == 8
# none from the natural action, as (12) fixes 3; 2^3 each way from F(1)
for M, count in [(nat, 0), (F1, 8)]:
    assert len(hom_tuples(restrict_action(h, M), N)) == len(hom_tuples(M, K)) == count
print("restriction -| coinduction: 0 and 8 maps each way")

print("ok")
