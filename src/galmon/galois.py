"""Invariants of monoid maps, stabilizers of subfunctors, and the induced
Galois connection between submonoids and natural families of subsets.

The two directions are computed along independent routes.  Invariants are
the points fixed by the images of a generating set of the source, read off
the actions' tables, with a direct scan as the oracle; stabilizers
come either from a direct scan or through the end of the underlying-carrier
diagram.  The connection laws and the closed object correspondence are then
checked rather than assumed.  Nothing is cached across calls: a sweep
computes the invariants of each submonoid once and reads those of a
stabilizer, itself a submonoid, from that table.
"""

import itertools

from .finset import equalizer
from .monoid import enumerate_submonoids, generators, submonoid
from . import ends


class GaloisError(Exception):
    """Structural error in a subfunctor or correspondence input."""


def _naturality_violation(site, comps):
    """First (morphism, element) pushing a chosen subset outside another,
    or None.  comps holds element-index sets per site object.  Naturality is
    closed under composition, so the generating morphisms suffice."""
    for i, j in itertools.product(range(site.nobj), repeat=2):
        for f in site.generating_tuples(i, j):
            for p in comps[i]:
                if f[p] not in comps[j]:
                    return (i, j, site.objects[i].carrier.elements[p])
    return None


class Subfunctor:
    """Per-object subsets of a site's carriers, closed under all morphisms:
    `_sets` holds their carrier indices in site order, `components` their
    elements for reports."""

    def __init__(self, site, subsets):
        unknown = sorted(set(subsets) - set(site.names))
        if unknown:
            raise GaloisError("subfunctor names unknown object %r" % unknown[0])
        comps = []
        idxsets = []
        for name, act in zip(site.names, site.objects):
            chosen = set(subsets.get(name, ()))
            outside = sorted((x for x in chosen if x not in act.carrier), key=str)
            if outside:  # sorted by str, since outside input need not be strings
                raise GaloisError("element %r is not in site object %r" % (outside[0], name))
            chosen = tuple(sorted(chosen))
            comps.append(chosen)
            idxsets.append(frozenset(map(act.carrier.index, chosen)))
        bad = _naturality_violation(site, idxsets)
        if bad is not None:
            i, j, x = bad
            raise GaloisError("not natural: a morphism %r -> %r moves %r outside the subset"
                              % (site.names[i], site.names[j], x))
        self.site = site
        self.components = dict(zip(site.names, comps))
        self._sets = tuple(idxsets)

    @classmethod
    def _trusted(cls, site, idxsets):
        """Carrier index sets, in site order, already closed under the site morphisms."""
        V = cls.__new__(cls)
        V.site = site
        V._sets = tuple(map(frozenset, idxsets))
        V.components = {name: tuple(act.carrier.elements[p] for p in sorted(s))
                        for name, act, s in zip(site.names, site.objects, V._sets)}
        return V

    @classmethod
    def full(cls, site):
        return cls._trusted(site, [range(len(act.carrier)) for act in site.objects])

    @classmethod
    def empty(cls, site):
        return cls._trusted(site, [() for _ in site.objects])

    def component(self, name):
        return self.components[name]

    def as_dict(self):
        return {name: list(v) for name, v in self.components.items()}

    def size(self):
        return sum(len(v) for v in self.components.values())

    def __le__(self, other):
        if self.site != other.site:
            raise GaloisError("subfunctors over different sites are incomparable")
        return all(a <= b for a, b in zip(self._sets, other._sets))

    def __eq__(self, other):
        return (isinstance(other, Subfunctor) and self.site == other.site
                and self._sets == other._sets)

    def __hash__(self):
        return hash((self.site, self._sets))

    def __repr__(self):
        return "Subfunctor(%s)" % ", ".join(
            "%s:{%s}" % (n, ",".join(v)) for n, v in self.components.items())

    def diagram(self):
        return ends.SubsetDiagram(self.site, [self.components[n] for n in self.site.names])


def fixes(h, V):
    """Whether every element coming from h acts as the identity on V."""
    if h.dst != V.site.monoid:
        raise GaloisError("the hom must land in the site's monoid")
    return all(act.table[h(b)][p] == p for act, s in zip(V.site.objects, V._sets)
               for b in h.src.elements for p in s)


def invariants(h, site):
    """The subfunctor of elements fixed by everything in the image of h:
    per object, the points p with table[h(g)][p] == p in the action's table
    for each generator g of h's source.  h and the site's actions obey
    their laws, so what h(G) fixes, all of h fixes."""
    if h.dst != site.monoid:
        raise GaloisError("the hom must land in the site's monoid")
    images = [h(g) for g in generators(h.src)]
    idxsets = []
    for act in site.objects:
        rows = [act.table[a] for a in images]
        idxsets.append([p for p in range(len(act.carrier))
                        if all(row[p] == p for row in rows)])
    # natural by construction: a site morphism commutes with every h(b)
    return Subfunctor._trusted(site, idxsets)


def invariants_oracle(h, site):
    """Direct scan for the same subfunctor: keep x with h(b).x = x for all b."""
    if h.dst != site.monoid:
        raise GaloisError("the hom must land in the site's monoid")
    subsets = {}
    for name, act in zip(site.names, site.objects):
        subsets[name] = tuple(x for x in act.carrier
                              if all(act.apply(h(b), x) == x for b in h.src.elements))
    return Subfunctor(site, subsets)


def stabilizer(V):
    """The largest submonoid acting as the identity on V, with inclusion."""
    m = V.site.monoid
    kept = [a for a in m.elements
            if all(act.table[a][p] == p for act, s in zip(V.site.objects, V._sets) for p in s)]
    return submonoid(m, kept)


def stabilizer_via_end(V):
    """The stabilizer again, through the end: equalize the reconstruction
    map against the trivial path after restricting all families to V."""
    site = V.site
    m = site.monoid
    end = ends.end_of_forgetful(site)
    rho = ends.reconstruction_hom(m, site, end=end)
    path = ends.trivial_path(m, site, end=end)
    cut, _ = ends.family_restriction(end, V.diagram())
    eq, _ = equalizer(cut * rho, cut * path)
    S, _ = submonoid(m, eq.elements)
    return S


def galois_correspondence(m, site):
    """Sweep all submonoids and their invariant images, flag the closed
    objects on both sides, and report the induced bijection."""
    rows = []
    inv_of = {}
    stab_of = {}  # each distinct invariant image, in order of first appearance
    for S, incl in enumerate_submonoids(m):
        V = invariants(incl, site)
        if V not in stab_of:
            stab_of[V] = stabilizer(V)[0].elements
        T = stab_of[V]
        inv_of[S.elements] = V
        rows.append({
            "elements": list(S.elements),
            "invariants": V.as_dict(),
            "stabilizer_of_invariants": list(T),
            "closed": T == S.elements,
        })
    vrows = []
    for V, T in stab_of.items():
        W = inv_of[T]
        vrows.append({
            "subsets": V.as_dict(),
            "stabilizer": list(T),
            "invariants_of_stabilizer": W.as_dict(),
            "closed": W == V,
        })
    closed_subs = [tuple(r["elements"]) for r in rows if r["closed"]]
    closed_vs = [V for V, r in zip(stab_of, vrows) if r["closed"]]
    pairing = {S: inv_of[S] for S in closed_subs}
    targets = set(pairing.values())
    bijective = len(targets) == len(closed_subs) and targets == set(closed_vs)
    as_set = {S: frozenset(S) for S in closed_subs}
    reversing = all(
        (as_set[s1] <= as_set[s2]) == (pairing[s2] <= pairing[s1])
        for s1, s2 in itertools.product(closed_subs, repeat=2))
    return {
        "schema": "galmon/1",
        "kind": "correspondence",
        "monoid": {"elements": list(m.elements), "unit": m.unit},
        "site": list(site.names),
        "submonoids": rows,
        "subfunctors": vrows,
        "closed_submonoids": [list(s) for s in closed_subs],
        "closed_subfunctors": [V.as_dict() for V in closed_vs],
        "bijection": [{"submonoid": list(s), "subfunctor": pairing[s].as_dict()}
                      for s in closed_subs],
        "bijective": bijective,
        "inclusion_reversing": bool(bijective and reversing),
    }


def connection_law_failures(m, site, extra_subfunctors=()):
    """Violations of the five connection laws over all submonoids, the full
    and empty subfunctors, every invariant image, and any extras."""
    failures = []
    pairs = enumerate_submonoids(m)
    inv = {S.elements: invariants(incl, site) for S, incl in pairs}
    as_set = {S: frozenset(S) for S in inv}  # stabilizers are submonoids too
    tested = list(dict.fromkeys([Subfunctor.full(site), Subfunctor.empty(site),
                                 *inv.values(), *extra_subfunctors]))
    stab = {V: stabilizer(V)[0].elements for V in tested}
    for S, incl in pairs:
        T = stab[inv[S.elements]]
        if not as_set[S.elements] <= as_set[T]:
            failures.append("submonoid {%s} escapes the stabilizer of its invariants"
                            % ",".join(S.elements))
        if inv[T] != inv[S.elements]:
            failures.append("invariants not idempotent at {%s}" % ",".join(S.elements))
    for V in tested:
        W = inv[stab[V]]
        if not V <= W:
            failures.append("%r escapes the invariants of its stabilizer" % V)
        if stab[W] != stab[V]:
            failures.append("stabilizer not idempotent at %r" % V)
    for S1, S2 in itertools.product(inv, repeat=2):
        if as_set[S1] <= as_set[S2] and not inv[S2] <= inv[S1]:
            failures.append("invariants not order reversing on {%s} <= {%s}"
                            % (",".join(S1), ",".join(S2)))
    for V1, V2 in itertools.product(tested, repeat=2):
        if V1 <= V2 and not as_set[stab[V2]] <= as_set[stab[V1]]:
            failures.append("stabilizer not order reversing on %r <= %r" % (V1, V2))
    return failures


def connection_laws(m, site, extra_subfunctors=()):
    return not connection_law_failures(m, site, extra_subfunctors)


def random_subfunctor(site, rng):
    """A natural subfunctor grown from random seeds by closing under the
    generating site morphisms, walking out of an object only when it grew."""
    idxsets = [{p for p in range(len(act.carrier)) if rng.random() < 0.4}
               for act in site.objects]
    fresh = {i: set(s) for i, s in enumerate(idxsets) if s}  # points not yet pushed out
    while fresh:
        i, new = fresh.popitem()
        for j in range(site.nobj):
            for f in site.generating_tuples(i, j):
                grown = {f[p] for p in new} - idxsets[j]
                if grown:
                    idxsets[j] |= grown
                    fresh.setdefault(j, set()).update(grown)
    return Subfunctor._trusted(site, idxsets)
