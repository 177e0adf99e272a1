"""The eight acceptance checks, one test and one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from functools import lru_cache

from conftest import (check_restriction_coinduction_adjunction, check_trivial_fixed_adjunction,
                      invariants_oracle)
from galmon.finset import FinSet
from galmon.monoid import MonoidHom, enumerate_submonoids, is_hopf, hopf_witness, antipode
from galmon.actions import (MAction, Site, trivial_action, free_action,
                            coset_action, canonical_site, default_site)
from galmon.ends import end_of_forgetful, end_monoid, reconstruction_hom
from galmon.galois import (invariants, stabilizer, stabilizer_via_end,
                           galois_correspondence, connection_laws)
from galmon import samples

FIXTURES = samples.acceptance_fixtures()
FIXTURE_NAMES = ["trivial", "Z2", "Z3", "Z4", "E2", "S3"]


def verdict(n, label, ok, elapsed=None, bound=None):
    line = "criterion %d (%s): %s" % (n, label, "PASS" if ok else "FAIL")
    if elapsed is not None:
        line += " in %.2fs (bound %ds)" % (elapsed, bound)
    print("\n" + line)
    assert ok, line
    if bound is not None:
        assert elapsed < bound, line


def test_criterion_1_invariants_equal_oracle():
    start = time.perf_counter()
    ok = True
    for m in FIXTURES:
        site = default_site(m)
        for S, incl in enumerate_submonoids(m):
            ok = ok and invariants(incl, site) == invariants_oracle(incl, site)
    elapsed = time.perf_counter() - start
    verdict(1, "invariants via equalizer equal the direct scan", ok, elapsed, 10)


def test_criterion_2_stabilizers_equal_oracle():
    start = time.perf_counter()
    ok = True
    for m in FIXTURES:
        site = default_site(m)
        for S, incl in enumerate_submonoids(m):
            V = invariants(incl, site)
            direct, _ = stabilizer(V)
            ok = ok and stabilizer_via_end(V).elements == direct.elements
    elapsed = time.perf_counter() - start
    verdict(2, "stabilizer through the end equals the direct scan", ok, elapsed, 30)


def test_criterion_3_classical_galois_correspondence():
    start = time.perf_counter()
    s3 = samples.symmetric3()
    z4 = samples.cyclic(4)
    rep3 = galois_correspondence(s3, canonical_site(s3, "cosets+free"))
    rep4 = galois_correspondence(z4, canonical_site(z4, "cosets+free"))
    ok = (all(row["closed"] for row in rep3["submonoids"])
          and len(rep3["submonoids"]) == 6
          and rep3["bijective"] and rep3["inclusion_reversing"]
          and all(row["closed"] for row in rep4["submonoids"])
          and len(rep4["submonoids"]) == 3
          and rep4["bijective"] and rep4["inclusion_reversing"])
    elapsed = time.perf_counter() - start
    verdict(3, "all subgroups of S3 and Z4 are closed, reversing bijection",
            ok, elapsed, 10)


def test_criterion_4_tannakian_reconstruction():
    start = time.perf_counter()
    ok = True
    for m in [samples.cyclic(2), samples.cyclic(3), samples.symmetric3(),
              samples.idempotent_pair()]:
        site = canonical_site(m, "free")
        end = end_of_forgetful(site)
        rho = reconstruction_hom(m, end)
        E = end_monoid(end)
        ok = ok and sorted(rho) == list(range(len(end))) and len(E.elements) == len(m.elements)
    elapsed = time.perf_counter() - start
    verdict(4, "the end over {F(1)} reconstructs the monoid", ok, elapsed, 10)


def test_criterion_5_connection_laws():
    z2 = samples.cyclic(2)
    e2 = samples.idempotent_pair()
    ok = all(connection_laws(m, default_site(m)) for m in FIXTURES)
    ok = ok and connection_laws(e2, canonical_site(e2, "free+trivial"))
    ok = ok and connection_laws(z2, canonical_site(z2, "trivial"))
    ok = ok and connection_laws(z2, Site(z2, []))
    verdict(5, "the five connection laws hold on every sweep", ok)


def _all_monoids_up_to_6():
    return samples.groups_up_to_order_6() + samples.nongroup_monoids()


def test_criterion_6_hopf_characterization():
    pool = _all_monoids_up_to_6()
    assert len(samples.nongroup_monoids()) >= 5
    ok = True
    for m in pool:
        invertible = all(m.inverse(a) is not None for a in m.elements)
        ok = ok and is_hopf(m) == invertible
        if is_hopf(m):
            s = dict(zip(m.elements, map(m.elements.__getitem__, antipode(m))))
            for a in m.elements:
                ok = ok and m.mul(s[a], a) == m.unit == m.mul(a, s[a])
        else:
            w = hopf_witness(m)
            ok = ok and w is not None and m.inverse(w) is None
    verdict(6, "fusion bijectivity matches invertibility, antipode laws hold", ok)


@lru_cache(maxsize=None)
def _homs_between(B, A):
    out = []
    for images in itertools.product(A.elements, repeat=len(B.elements)):
        table = dict(zip(B.elements, images))
        if table[B.unit] != A.unit:
            continue
        if all(table[B.mul(a, b)] == A.mul(table[a], table[b])
               for a in B.elements for b in B.elements):
            out.append(MonoidHom(B, A, table))
    return out


def _action_catalog(m):
    acts = []
    for k in range(5):
        X = FinSet(tuple("x%d" % i for i in range(k)))
        acts.append(trivial_action(m, X))
        if len(m.elements) * k <= 4:
            acts.append(free_action(m, X))
    if is_hopf(m):
        for H, _ in enumerate_submonoids(m):
            if len(m.elements) // len(H.elements) <= 4:
                acts.append(coset_action(m, H.elements))
    if m.elements == samples.symmetric3().elements:
        acts.append(samples.natural_action3())
    return acts


def _random_subaction(m, M, rng):
    keep = {x for x in M.carrier if rng.random() < 0.6}
    frontier = list(keep)
    while frontier:
        x = frontier.pop()
        for a in m.elements:
            y = M.apply(a, x)
            if y not in keep:
                keep.add(y)
                frontier.append(y)
    carrier = FinSet(sorted(keep))
    return MAction(m, carrier, {(a, x): M.apply(a, x)
                                for a in m.elements for x in carrier})


def adjunction_instances():
    """50 seeded instances (A, X, M, h, N): a set X and an action M of A for
    trivial action -| fixed points, and h: B -> A with an action N of B
    for restriction -| coinduction."""
    rng = random.Random(20260814)
    b_pool = [samples.trivial_monoid(), samples.cyclic(2), samples.cyclic(3),
              samples.cyclic(4), samples.idempotent_pair()]
    a_pool = b_pool + [samples.symmetric3()]
    for _ in range(50):
        A = rng.choice(a_pool)
        B = rng.choice(b_pool)
        h = rng.choice(_homs_between(B, A))
        X = FinSet(tuple("p%d" % i for i in range(rng.randrange(5))))
        M = _random_subaction(A, rng.choice(_action_catalog(A)), rng)
        N = _random_subaction(B, rng.choice(_action_catalog(B)), rng)
        yield A, X, M, h, N


def test_criterion_7_adjunction_checks():
    ok = True
    for A, X, M, h, N in adjunction_instances():
        ok = ok and check_trivial_fixed_adjunction(A, X, M)
        ok = ok and check_restriction_coinduction_adjunction(h, M, N)
    verdict(7, "both adjunctions verified on 50 seeded random instances", ok)


def test_criterion_8_determinism():
    here = os.path.dirname(__file__)
    monoid_file = os.path.join(here, os.pardir, "fixtures", "s3.json")
    cmd = [sys.executable, "-m", "galmon.cli", "corr", "--monoid", monoid_file]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    ok = first == second and json.loads(first)["bijective"]
    verdict(8, "repeated corr runs emit byte-identical reports", ok)
