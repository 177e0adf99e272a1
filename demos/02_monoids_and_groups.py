"""Monoids from Cayley tables; telling groups apart from monoids with the
fusion map (a,b) -> (a,ab), which is a bijection exactly for groups: read
off the table, exactly when every row b -> ab is one."""

from galmon.monoid import (validate_monoid, enumerate_submonoids,
                           enumerate_subgroups, is_hopf, hopf_witness, antipode)
from galmon import samples

s3 = samples.symmetric3()
print("S3 elements:", s3.elements)
assert validate_monoid(s3) == []

subs = enumerate_submonoids(s3)
print("S3 has", len(subs), "submonoids:")
for S, incl in subs:
    print("   {%s}" % ",".join(S.elements))
assert len(subs) == 6
assert len(enumerate_subgroups(s3)) == 6  # in a group they coincide

# fusion on a group is a bijection, and its failure names a witness
assert is_hopf(s3)
s = dict(zip(s3.elements, map(s3.elements.__getitem__, antipode(s3))))  # index tuple
print("antipode of (123):", s["(123)"])
assert s["(123)"] == "(132)"

# row z of E2's table sends e and z both to z, so fusion sends (z,e) and
# (z,z) both to (z,z)
e2 = samples.idempotent_pair()
assert e2.mul("z", "e") == e2.mul("z", "z")
print("fusion collision in E2: (z,e) and (z,z) both ->", "(z,%s)" % e2.mul("z", "e"))
assert not is_hopf(e2)
print("non-invertible witness:", hopf_witness(e2))

# sweep: fusion bijectivity agrees with direct inverse search
for m in samples.groups_up_to_order_6() + samples.nongroup_monoids():
    direct = all(m.inverse(a) is not None for a in m.elements)
    assert is_hopf(m) == direct

print("ok")
