"""Monoid actions and the two adjunctions around them: trivial action -|
fixed points, and restriction -| coinduction along a monoid map."""

from galmon.finset import FinSet, singleton
from galmon.monoid import MonoidHom, submonoid
from galmon.actions import (trivial_action, free_action, restrict_action,
                            hom_tuples, fixed_points, coinduct,
                            check_trivial_fixed_adjunction,
                            check_restriction_coinduction_adjunction)
from galmon import samples

s3 = samples.symmetric3()
nat = samples.natural_action3()

# restricting the natural action to the subgroup generated by (12)
c2, incl = submonoid(s3, ("e", "(12)"))
r = restrict_action(incl, nat)
print("(12) acting on 1:", r.apply("(12)", "1"))
F, _ = fixed_points(r)
print("fixed points of the restricted action:", F.elements)
assert F.elements == ("3",)

# equivariant maps out of the free action on one generator = points;
# each is its tuple of image indices
F1 = free_action(s3, singleton())
maps = hom_tuples(F1, nat)
print("maps F(1) -> natural action, as image indices:", maps[:2], "...")
assert len(maps) == len(nat.carrier)

# trivial action -| fixed points
X = FinSet(("p", "q"))
assert check_trivial_fixed_adjunction(s3, X, nat)
print("E -| Gamma verified on the natural action")

# restriction -| coinduction for Z2 -> S3 via (12)
z2 = samples.cyclic(2)
h = MonoidHom(z2, s3, {"e": "e", "g": "(12)"})
N = samples.swap_action()
K = coinduct(h, N)
print("coinduced carrier has", len(K.carrier), "elements, e.g.")
print("  ", K.carrier.elements[0])
assert len(K.carrier) == 8
assert check_restriction_coinduction_adjunction(h, nat, N)  # no maps: (12) fixes 3
assert check_restriction_coinduction_adjunction(h, F1, N)  # 2^3 maps each way
print("restriction -| coinduction verified")

print("ok")
