"""Reconstructing a monoid from its actions: the end of the self-hom
diagram over a site, the map a -> (x -> a.x) into it, and what is lost
when the site is too poor to separate elements."""

from galmon.actions import Site, canonical_site, coset_action
from galmon.ends import end_of_forgetful, end_monoid, reconstruction_hom
from galmon.monoid import kernel_pairs
from galmon import samples

s3 = samples.symmetric3()

# over the free site, the end has exactly one family per monoid element
site = canonical_site(s3, "free")
end = end_of_forgetful(site)
print("families over {F(1)}:", len(end))
rho = reconstruction_hom(s3, end)  # per element, the index of its family
assert sorted(rho) == list(range(len(end)))
assert len(end_monoid(end).elements) == 6
print("rho is an isomorphism, element by element onto family indices", rho)

# a site with only the coset space of A3 sees nothing but parity
a3 = ("e", "(123)", "(132)")
poor = Site(s3, [("G/A3", coset_action(s3, a3))])
poor_end = end_of_forgetful(poor)
rho2 = reconstruction_hom(s3, poor_end)
pairs = kernel_pairs(s3.elements, rho2)
print("over {G/A3} the end has", len(poor_end), "families;")
print("rho identifies", len(pairs), "pairs, e.g.", pairs[0])
assert len(set(rho2)) == 2
assert len(pairs) == 6

print("ok")
