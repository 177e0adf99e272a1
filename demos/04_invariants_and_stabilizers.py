"""Invariants of a monoid map as the points its generators' images fix, and
the stabilizer of a subfunctor, each cross-checked against a second route."""

from galmon.finset import singleton
from galmon.monoid import submonoid, enumerate_submonoids
from galmon.actions import (canonical_site, default_site, hom_tuples, restrict_action,
                            trivial_action)
from galmon.galois import invariants, stabilizer, stabilizer_via_end, fixes
from galmon import samples

s3 = samples.symmetric3()
nat = samples.natural_action3()
site = canonical_site(s3, "custom", custom=(("nat", nat),))

c2, incl = submonoid(s3, ("e", "(12)"))
V = invariants(incl, site)
print("invariants of <(12)> on the natural action:", V.component("nat"))
assert V.component("nat") == ("3",)
# the same points as the maps into the restricted action from a fixed point
fixed = hom_tuples(trivial_action(c2, singleton()), restrict_action(incl, nat))
assert [nat.carrier.elements[y] for (y,) in fixed] == list(V.component("nat"))
assert fixes(incl, V)

# over the default site the stabilizer recovers the subgroup
big = default_site(s3)
print("default site objects:", ", ".join(big.names))
for S, i in enumerate_submonoids(s3):
    W = invariants(i, big)
    direct, _ = stabilizer(W)
    through_end = stabilizer_via_end(W)
    assert direct.elements == through_end.elements == S.elements
    print("Stab(Inv {%s}) = {%s}" % (",".join(S.elements),
                                     ",".join(direct.elements)))

print("ok")
