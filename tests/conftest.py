"""Shared test settings, a monoid's CLI document and file writer, a monoid's
and an action's tables by element names, the check of a package-built
monoid against the checked constructor, the monoid of given self-maps, the
sample monoids, the identity hom, the hom-law scan, the fusion map and its
bijectivity, the image tuples of a coinduced action's elements, the
submonoid one element generates, the brute-force
submonoid, subgroup, invariant and subfunctor oracles, the object-based
correspondence and connection-law sweeps, the propagation
search with its oracles for equivariant maps and for wedge families, the
filter over all maps for equivariant maps and the list of all maps, the
underlying-carrier site and the restriction of ends along site functors,
the reconstruction map with its action-law check, the checks of the
augmentation square, the reconstruction composite and both adjunctions,
and the hypothesis strategies of band-rich monoids and of transformation
monoids."""

import itertools
import json

from hypothesis import settings, strategies as st

from galmon import actions, samples
from galmon.finset import (FinMap, FinSet, FinSetError, SizingError, MAX_ENUMERATION, curry,
                           exponential, pair_label, product)
from galmon.monoid import (Monoid, MonoidHom, acts_along, enumerate_submonoids, generators,
                          submonoid, trivial_monoid)
from galmon.actions import MAction, Site, restrict_action, trivial_action
from galmon.ends import EndError, end_of_forgetful, reconstruction_hom, trivial_path
from galmon.galois import Subfunctor, _mask, _naturality_violation

settings.register_profile("galmon", deadline=None, max_examples=60)
settings.load_profile("galmon")


def monoid_doc(m):
    """m as a document of the CLI's monoid schema."""
    return {"elements": list(m.elements), "unit": m.unit,
            "table": {a: {b: m.mul(a, b) for b in m.elements} for a in m.elements}}


def write_monoid(path, m):
    """Write m as a monoid file of the CLI schema."""
    with open(path, "w") as fd:
        json.dump(monoid_doc(m), fd)


def products(m):
    """The monoid m as a dict (a, b) -> ab of element names, the input the
    checked Monoid constructor reads."""
    return {(a, b): m.mul(a, b) for a in m.elements for b in m.elements}


def assert_checked(m, table=None):
    """m, on rows a package builder wrote, equals and hashes as the checked
    constructor's monoid on `table` (default: m's own products), so its
    rows are a tuple in element order."""
    checked = Monoid(m.carrier, m.unit, products(m) if table is None else table)
    assert m == checked and hash(m) == hash(checked)


def entries(M):
    """The action M as a dict (a, x) -> a.x of element names, the input
    the checked MAction constructor reads."""
    return {(a, x): M.apply(a, x) for a in M.monoid.elements for x in M.carrier}


def maps_monoid(maps):
    """The monoid of the given self-maps of 0..n-1, which must contain the
    identity and be closed under composition."""
    label = {f: "t" + "".join(map(str, f)) for f in maps}
    table = {(label[f], label[g]): label[tuple(f[p] for p in g)] for f in maps for g in maps}
    return Monoid(FinSet(label.values()), label[tuple(range(len(maps[0])))], table)


SAMPLES = {
    "1": samples.trivial_monoid(), "Z2": samples.cyclic(2), "Z3": samples.cyclic(3),
    "Z4": samples.cyclic(4), "V4": samples.klein_four(), "Z6": samples.cyclic(6),
    "S3": samples.symmetric3(), "E2": samples.idempotent_pair(), "N3": samples.nilpotent3(),
    "M4": samples.mult_mod(4), "M6": samples.mult_mod(6), "Z8": samples.cyclic(8),
    "M8": samples.mult_mod(8), "LZ3": samples.left_zero_with_unit(3),
    "RZ3": samples.right_zero_with_unit(3)}
S4 = maps_monoid(list(itertools.permutations(range(4))))
# Z4 named by words, so that F(1) lists (e,*), (g g g,*), (g g,*), (g,*):
# its carrier order is not the element order
WORDS = ["e", "g", "g g", "g g g"]
Z4_WORDS = Monoid(FinSet(WORDS), "e", {(WORDS[i], WORDS[j]): WORDS[(i + j) % 4]
                                       for i in range(4) for j in range(4)})
T3 = maps_monoid(list(itertools.product(range(3), repeat=3)))

# a unit adjoined to a non-associative table: (ab)b = a but a(bb) = e
NONASSOC = Monoid(FinSet(("a", "b", "e")), "e",
                  {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
                   ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "b",
                   ("b", "e"): "b", ("b", "a"): "b", ("b", "b"): "a"})


def identity_hom(m):
    return MonoidHom(m, m, {a: a for a in m.elements})


def hom_law_oracle(src, dst, assignment):
    """The first failure of the hom law by names, or None: an element left
    undefined, an image outside dst, a key outside src, the unit, then
    every pair (a, b) in order."""
    for b in src.elements:
        if b not in assignment:
            return "map undefined at %r" % (b,)
    for b in src.elements:
        if assignment[b] not in dst.carrier:
            return "image %r of %r lies outside the codomain" % (assignment[b], b)
    for key in sorted(assignment):
        if key not in src.carrier:
            return "assignment mentions %r outside the domain" % (key,)
    f = assignment.__getitem__
    if f(src.unit) != dst.unit:
        return "hom sends unit to %r" % f(src.unit)
    for a, b in itertools.product(src.elements, repeat=2):
        if f(src.mul(a, b)) != dst.mul(f(a), f(b)):
            return "hom breaks multiplicativity at (%s, %s)" % (a, b)
    return None


def fusion_morphism(m):
    """The self-map (a, b) -> (a, ab) of the square, a bijection exactly
    when m is a group: the oracle of `is_hopf`."""
    P = product(m.carrier, m.carrier)
    return FinMap(P, P, {p: pair_label(a, m.mul(a, b)) for p, (a, b) in P._pairs.items()})


def is_bijection(f):
    return len(f.dom) == len(f.cod) == len(set(f.assignment.values()))


def coinduced_images(h, N, K):
    """Each element of K = coinduct(h, N) as its image-index tuple over h's
    target, decoded from its label."""
    E = exponential(h.dst.carrier, N.carrier)
    return [tuple(map(N.carrier.index, E.map_images(e))) for e in K.carrier]


def generated_inclusion(m, g):
    """The inclusion of the submonoid of m that g generates."""
    S = {m.unit, g}
    while any(m.mul(a, b) not in S for a in S for b in S):
        S |= {m.mul(a, b) for a in S for b in S}
    return submonoid(m, S)[1]


def submonoids_oracle(m):
    """All submonoids as element tuples, ordered by size then element list,
    by scanning the subsets that contain the unit and keeping the closed
    ones.  A branch is cut once two chosen elements multiply to one already
    left out, since no subset in it can then be closed."""
    rest = [a for a in m.elements if a != m.unit]
    out = []

    def scan(k, chosen, left_out):
        if any(m.mul(a, b) in left_out for a in chosen for b in chosen):
            return
        if k == len(rest):
            if all(m.mul(a, b) in chosen for a in chosen for b in chosen):
                out.append(tuple(sorted(chosen)))
            return
        scan(k + 1, chosen | {rest[k]}, left_out)
        scan(k + 1, chosen, left_out | {rest[k]})

    scan(0, frozenset([m.unit]), frozenset())
    out.sort(key=lambda elements: (len(elements), elements))
    return out


def subfunctors_oracle(site):
    """All natural subfunctors of a small site, smallest first, by scanning
    every family of subset masks."""
    sizes = [len(act.carrier) for act in site.objects]
    found = []
    for masks in itertools.product(*[range(2 ** n) for n in sizes]):
        idxsets = [{p for p in range(n) if mask >> p & 1}
                   for n, mask in zip(sizes, masks)]
        if _naturality_violation(site, idxsets) is None:
            found.append(Subfunctor._trusted(
                site, _mask(p in s for n, s in zip(sizes, idxsets) for p in range(n))))
    found.sort(key=lambda V: (V.mask.bit_count(), tuple(V.components[n] for n in site.names)))
    return found


def point_sets(V):
    """V as one frozenset of chosen elements per site object, in site order."""
    return tuple(map(frozenset, V.components.values()))


def included(V, W):
    """Per-object inclusion of the chosen elements, V in W."""
    return all(map(frozenset.issubset, point_sets(V), point_sets(W)))


def invariants_oracle(h, site):
    """The invariants of h by a direct scan: keep x with h(b).x = x for all b."""
    return Subfunctor(site, {name: tuple(x for x in act.carrier
                                         if all(act.apply(h(b), x) == x for b in h.src.elements))
                             for name, act in zip(site.names, site.objects)})


def stabilizer_oracle(V):
    """The elements fixing every chosen point, by applying each to each."""
    site = V.site
    return tuple(a for a in site.monoid.elements
                 if all(act.apply(a, x) == x for act, chosen in zip(site.objects, point_sets(V))
                        for x in chosen))


def correspondence_oracle(m, site):
    """galois_correspondence by objects: a checked submonoid and inclusion
    for each submonoid, invariants by the direct scan, stabilizers by
    applying every element, and subfunctors keyed and compared as
    per-object frozensets."""
    rows = []
    inv_of = {}
    stab_of = {}  # each distinct invariant image, in order of first appearance
    for S, incl in enumerate_submonoids(m):
        V = invariants_oracle(incl, site)
        if point_sets(V) not in stab_of:
            stab_of[point_sets(V)] = (V, stabilizer_oracle(V))
        T = stab_of[point_sets(V)][1]
        inv_of[S.elements] = V
        rows.append({"elements": list(S.elements), "invariants": V.as_dict(),
                     "stabilizer_of_invariants": list(T), "closed": T == S.elements})
    vrows = []
    for V, T in stab_of.values():
        W = inv_of[T]
        vrows.append({"subsets": V.as_dict(), "stabilizer": list(T),
                      "invariants_of_stabilizer": W.as_dict(),
                      "closed": point_sets(W) == point_sets(V)})
    closed_subs = [tuple(r["elements"]) for r in rows if r["closed"]]
    closed_vs = [V for (V, _), r in zip(stab_of.values(), vrows) if r["closed"]]
    pairing = {S: inv_of[S] for S in closed_subs}
    targets = set(map(point_sets, pairing.values()))
    bijective = len(targets) == len(closed_subs) and targets == set(map(point_sets, closed_vs))
    reversing = all((set(s1) <= set(s2)) == included(pairing[s2], pairing[s1])
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


def law_failures_oracle(m, site, extra_subfunctors=()):
    """connection_law_failures by objects, as correspondence_oracle works."""
    failures = []
    inv = {S.elements: invariants_oracle(incl, site) for S, incl in enumerate_submonoids(m)}
    first = {}  # each distinct subfunctor, in order of first appearance
    for V in [Subfunctor.full(site), Subfunctor.empty(site), *inv.values(), *extra_subfunctors]:
        first.setdefault(point_sets(V), V)
    tested = list(first.values())
    stab = {point_sets(V): stabilizer_oracle(V) for V in tested}
    for S, V in inv.items():
        T = stab[point_sets(V)]
        if not set(S) <= set(T):
            failures.append("submonoid {%s} escapes the stabilizer of its invariants"
                            % ",".join(S))
        if point_sets(inv[T]) != point_sets(V):
            failures.append("invariants not idempotent at {%s}" % ",".join(S))
    for V in tested:
        W = inv[stab[point_sets(V)]]
        if not included(V, W):
            failures.append("%r escapes the invariants of its stabilizer" % V)
        if stab[point_sets(W)] != stab[point_sets(V)]:
            failures.append("stabilizer not idempotent at %r" % V)
    for S1, S2 in itertools.product(inv, repeat=2):
        if set(S1) <= set(S2) and not included(inv[S2], inv[S1]):
            failures.append("invariants not order reversing on {%s} <= {%s}"
                            % (",".join(S1), ",".join(S2)))
    for V1, V2 in itertools.product(tested, repeat=2):
        if included(V1, V2) and not set(stab[point_sets(V2)]) <= set(stab[point_sets(V1)]):
            failures.append("stabilizer not order reversing on %r <= %r" % (V1, V2))
    return failures


def propagate(sizes, rules, limit=MAX_ENUMERATION, layer="actions"):
    """Yield every assignment of variables 0..n-1 that obeys the forcing
    rules, as a tuple of values, in lexicographic order.

    Variable v takes values in range(sizes[v]); rules[v] lists pairs
    (w, table) meaning "v = q forces w = table[q]".  The search fixes the
    first free variable to each value in turn and closes the choice under
    the rules (arc consistency in the sense of Mackworth), so its cost
    tracks the number of solutions rather than the product of the domains.
    Every assignment made, chosen or forced, counts against `limit`.
    """
    n = len(sizes)
    assign = [-1] * n
    made = 0

    def close(v, q, trail):
        # assign v = q and everything it forces; False on a clash
        nonlocal made
        stack = [(v, q)]
        while stack:
            v, q = stack.pop()
            cur = assign[v]
            if cur != -1:
                if cur != q:
                    return False
                continue
            made += 1
            if made > limit:
                raise SizingError("%s: %d candidate assignments exceed the limit of %d"
                                  % (layer, made, limit))
            assign[v] = q
            trail.append(v)
            for w, table in rules[v]:
                stack.append((w, table[q]))
        return True

    def rec(v):
        while v < n and assign[v] != -1:
            v += 1
        if v == n:
            yield tuple(assign)
            return
        for q in range(sizes[v]):
            trail = []
            if close(v, q, trail):
                yield from rec(v + 1)
            for w in trail:
                assign[w] = -1

    yield from rec(0)


def nat_search_oracle(V, W):
    """The wedge families of [V, W], in lexicographic order, by the
    propagation search: one variable per (object i, point p) holds the
    image of p under the i-th component, and every generating morphism
    f: i -> j adds the rule "(i, p) = q forces (j, V f(p)) = W f(q)"."""
    site = V.site
    k = site.nobj
    offset = [0]
    for ob in V.obs:
        offset.append(offset[-1] + len(ob))
    sizes = [len(W.obs[i]) for i in range(k) for _ in V.obs[i]]
    rules = [[] for _ in sizes]
    for i, j in itertools.product(range(k), repeat=2):
        for f in site.generating_tuples(i, j):
            Vf, Wf = V.mor(i, j, f), W.mor(i, j, f)
            for p, vp in enumerate(Vf):
                rules[offset[i] + p].append((offset[j] + vp, Wf))
    return [tuple(flat[offset[i]:offset[i + 1]] for i in range(k))
            for flat in propagate(sizes, rules, layer="ends")]


def hom_search_oracle(M, N, gens=None):
    """Image-index tuples of the equivariant maps M -> N, sorted, by the
    propagation search: each point is a variable whose value is its image,
    and f(x) = y forces f(a.x) = a.y for every monoid element a, or only
    for a in gens when given.  Points with the largest orbits are fixed
    first, which forces most others."""
    sizes = [len(set(images)) for images in zip(*M.table)]
    order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    rank = sorted(range(len(order)), key=order.__getitem__)
    elems = M.monoid.elements if gens is None else gens
    aM, aN = dict(zip(M.monoid.elements, M.table)), dict(zip(N.monoid.elements, N.table))
    rules = [[(rank[aM[a][p]], aN[a]) for a in elems] for p in order]
    found = propagate([len(N.carrier)] * len(order), rules)
    return sorted(tuple(map(t.__getitem__, rank)) for t in found)


def equivariant_filter(M, N):
    """Image-index tuples of all maps M -> N that commute with every
    element, in lexicographic order, by testing every map."""
    rows = list(zip(M.table, N.table))
    return [t for t in itertools.product(range(len(N.carrier)), repeat=len(M.carrier))
            if all(t[aM[p]] == aN[t[p]] for aM, aN in rows for p in range(len(t)))]


def hom_set(X, Y):
    """All total maps X -> Y as FinMaps, in canonical table order."""
    return [FinMap(X, Y, dict(zip(X.elements, images)))
            for images in itertools.product(Y.elements, repeat=len(X))]


def underlying_site(site):
    """The site of underlying carriers: trivial actions of the one-point
    monoid on the distinct carriers, with the index map from `site`."""
    t = trivial_monoid()
    carriers = []
    for act in site.objects:
        if act.carrier not in carriers:
            carriers.append(act.carrier)
    carriers.sort(key=lambda c: (len(c), c.elements))
    base = Site(t, [("X%d" % i, trivial_action(t, c)) for i, c in enumerate(carriers)])
    ob_map = tuple(carriers.index(act.carrier) for act in site.objects)
    return base, ob_map


class SiteFunctor:
    """An object reindexing between sites that keeps carriers and maps as
    they are; each source morphism must already be a target morphism."""

    def __init__(self, src, dst, ob_map):
        if len(ob_map) != src.nobj:
            raise EndError("object map must cover the source site")
        for i, gi in enumerate(ob_map):
            if src.objects[i].carrier != dst.objects[gi].carrier:
                raise EndError("functor must preserve the carrier of %r" % src.names[i])
        for i, j in itertools.product(range(src.nobj), repeat=2):
            gi, gj = ob_map[i], ob_map[j]
            if dst._pair_is_lazy(gi, gj):
                continue  # every map is a morphism there
            allowed = set(dst._filtered(gi, gj))
            for f in src.iter_hom_tuples(i, j):
                if f not in allowed:
                    raise EndError("a morphism %r -> %r is not a morphism downstairs"
                                   % (src.names[i], src.names[j]))
        self.src = src
        self.dst = dst
        self.ob_map = tuple(ob_map)


def restrict_end(end, functor, target_end):
    """Restrict a self-hom end along a site functor into its site: the map
    End[W] -> End[W o G] that drops the components the functor does not
    reach, as the index in target_end.carrier of each family of
    end.carrier.  Dropping components commutes with componentwise
    composition, so it is a monoid map."""
    if functor.dst != end.site:
        raise EndError("functor must land in the end's site")
    kept = [tuple(fam[gi] for gi in functor.ob_map) for fam in end.carrier]
    if not all(map(target_end.carrier.__contains__, kept)):
        raise EndError("a restricted family fails the wedge condition downstairs")
    return tuple(map(target_end.carrier.index, kept))


def extend_with_trivials(site):
    """The site plus a trivial action on every carrier it mentions, and the
    functor data of both directions of the extension."""
    base, _ = underlying_site(site)
    objects = list(zip(site.names, site.objects))
    acts = list(site.objects)
    into = []
    for i, b in enumerate(base.objects):
        t = trivial_action(site.monoid, b.carrier)
        if t not in acts:
            objects.append(("E(X%d)" % i, t))
            acts.append(t)
        into.append(acts.index(t))
    extended = Site(site.monoid, objects)
    _, down = underlying_site(extended)  # the same carriers in the same order
    return extended, base, tuple(into), down


def augmentation_square_check(m, site):
    """Three identities of the underlying-carrier restriction.

    First: restricting to carriers and coming back along the trivial-action
    section is the identity on the carrier end.  Second: the carrier end's
    unit restricts to End[U]'s.  Third: the trivial path agrees with the
    family of curried projections A x X -> X, object by object, read back
    as index tuples.  All are checked elementwise.
    """
    extended, base, into, down = extend_with_trivials(site)
    end_up = end_of_forgetful(extended)
    end_base = end_of_forgetful(base)
    to_up = restrict_end(end_base, SiteFunctor(extended, base, down), end_up)
    back = restrict_end(end_up, SiteFunctor(base, extended, into), end_base)
    if tuple(map(back.__getitem__, to_up)) != tuple(range(len(end_base))):
        return False
    if to_up[end_base.carrier.index(end_base.unit())] != end_up.carrier.index(end_up.unit()):
        return False
    columns = []  # per object, each element's component
    for act in extended.objects:
        X = act.carrier
        P = product(m.carrier, X)
        dropped = curry(FinMap(P, X, {p: x for p, (_, x) in P._pairs.items()}))  # constantly 1
        columns.append([tuple(map(X.index, dropped.cod.map_images(dropped(a))))
                        for a in m.elements])
    return all(end_up.carrier.elements[k] == comps
               for k, comps in zip(trivial_path(m, end_up), zip(*columns)))


def reconstruction_hom_oracle(m, end):
    """`ends.reconstruction_hom` with the action law checked on every site
    object along m's generators (Light's test), whether or not m is the
    site's monoid."""
    objects = end.site.objects
    fams = [tuple(act.table[k] for act in objects) for k in range(len(m))]
    for a, fam in zip(m.elements, fams):
        if fam not in end.carrier:
            raise EndError("the action family of %r fails the wedge condition" % a)
    if not all(acts_along(m, act.table, generators(m)) for act in objects):
        raise EndError("the action families are not a monoid map into the end")
    return tuple(map(end.carrier.index, fams))


def reconstruction_composite_check(m, end):
    """Acting through the reconstruction map reproduces every action table."""
    tables = [dict(zip(m.elements, act.table)) for act in end.site.objects]
    return all(end.carrier.elements[k] == tuple(table[a] for table in tables)
               for a, k in zip(m.elements, reconstruction_hom(m, end)))


def check_trivial_fixed_adjunction(m, X, M):
    """Equivariant maps out of the trivial action on X correspond to plain
    maps into the fixed points of M.  On index tuples the bijection is the
    identity: the maps out are the tuples of fixed points, in order.
    Naturality is spot-checked on endomorphisms k of M and maps g: X -> X:
    for each map f out, k.f and k.f.g must lie in the hom set."""
    rows = M.table
    fixed = [p for p in range(len(M.carrier)) if all(row[p] == p for row in rows)]
    lhs = actions.hom_tuples(trivial_action(m, X), M)
    if lhs != list(itertools.product(fixed, repeat=len(X))):
        return False
    maps = set(lhs)
    gs = list(itertools.islice(itertools.product(range(len(X)), repeat=len(X)), 8))
    for k in actions.hom_tuples(M, M)[:8]:
        for f in lhs:
            kf = tuple(map(k.__getitem__, f))
            if kf not in maps or any(tuple(map(kf.__getitem__, g)) not in maps for g in gs):
                return False
    return True


def transpose_to_coinduced(h, M, f, at):
    """Send f: restrict(M) -> N to its mate M -> coinduct(N), x |-> (a |->
    f(a.x)).  `at` gives the index in coinduct(N) of each image tuple over
    h's target; a point whose images are no element of it goes to None."""
    columns = zip(*(map(f.__getitem__, row) for row in M.table))
    return tuple(map(at.get, columns))


def transpose_from_coinduced(h, g, images):
    """Send g: M -> coinduct(N) to its mate restrict(M) -> N, x |-> g(x)(1),
    where images[q] is element q of coinduct(N) as its image tuple."""
    unit = h.dst.carrier.index(h.dst.unit)
    return tuple(images[q][unit] for q in g)


def check_restriction_coinduction_adjunction(h, M, N):
    """Bijection and spot-checked naturality of restriction -| coinduction:
    the maps restrict(M) -> N transpose onto the maps M -> K = coinduct(N)
    and back, and composites with endomorphisms u of M, v of N and K(v) of
    K lie in their hom sets and transpose to the composites of the mates."""
    hom_tuples = actions.hom_tuples
    K = actions.coinduct(h, N)
    if any(None in row for row in K.table):
        return False  # a translate fell outside the maps read off
    images = coinduced_images(h, N, K)
    at = {t: q for q, t in enumerate(images)}
    up = {f: transpose_to_coinduced(h, M, f, at) for f in hom_tuples(restrict_action(h, M), N)}
    if (set(up.values()) != set(hom_tuples(M, K))
            or any(transpose_from_coinduced(h, g, images) != f for f, g in up.items())):
        return False
    for u in hom_tuples(M, M)[:8]:
        for f, g in up.items():
            fu = tuple(map(f.__getitem__, u))
            if fu not in up or up[fu] != tuple(map(g.__getitem__, u)):
                return False
    for v in hom_tuples(N, N)[:8]:
        Kv = [at.get(tuple(map(v.__getitem__, t))) for t in images]
        if None in Kv or any(Kv[row[q]] != row[Kv[q]] for row in K.table
                             for q in range(len(Kv))):
            return False
        for f, g in up.items():
            vf = tuple(map(v.__getitem__, f))
            if vf not in up or up[vf] != tuple(map(Kv.__getitem__, g)):
                return False
    return True


def is_subgroup_oracle(m, elements):
    """True iff every element has a two-sided inverse among the elements,
    by trying every pair."""
    return all(any(m.mul(a, b) == m.unit == m.mul(b, a) for b in elements)
               for a in elements)


def transformation_monoid(gens):
    """The monoid the self-maps gens of 0..n-1 generate under composition,
    with its faithful action on the points."""
    n = len(gens[0])
    unit = tuple(range(n))
    elems = {unit}
    frontier = list(gens)
    while frontier:
        f = frontier.pop()
        if f not in elems:
            elems.add(f)
            frontier.extend(tuple(f[p] for p in g) for g in elems)
            frontier.extend(tuple(g[p] for p in f) for g in elems)
    label = {f: "".join(map(str, f)) for f in elems}
    table = {(label[f], label[g]): label[tuple(f[p] for p in g)]
             for f in elems for g in elems}
    m = Monoid(FinSet(label.values()), label[unit], table)
    points = FinSet(str(p) for p in range(n))
    act = MAction(m, points, {(label[f], str(p)): str(f[p]) for f in elems for p in range(n)})
    return m, act


def formula_monoid(points, unit, op):
    """The monoid on the given points under op, each labelled by its place."""
    label = {p: "p%02d" % k for k, p in enumerate(points)}
    return Monoid(FinSet(label.values()), label[unit],
                  {(label[p], label[q]): label[op(p, q)] for p in points for q in points})


@st.composite
def band_monoids(draw):
    """A monoid rich in idempotents: a unit adjoined to a left-zero,
    right-zero or rectangular band, the subsets of up to three points under
    union, or a chain under max; then its direct product with Z1, Z2 or Z3."""
    kind = draw(st.sampled_from(["left", "right", "rectangular", "subsets", "chain"]))
    if kind == "subsets":
        k = draw(st.integers(0, 3))
        points = [frozenset(c) for r in range(k + 1) for c in itertools.combinations(range(k), r)]
        unit, op = frozenset(), frozenset.union
    elif kind == "chain":
        points, unit, op = list(range(draw(st.integers(1, 6)))), 0, max
    else:
        rows, cols = {"left": (st.integers(1, 5), st.just(1)),
                      "right": (st.just(1), st.integers(1, 5)),
                      "rectangular": (st.integers(2, 3), st.integers(2, 3))}[kind]
        band = list(itertools.product(range(draw(rows)), range(draw(cols))))
        points, unit = [None] + band, None

        def op(p, q):  # the band (i, j)(k, l) = (i, l), with a unit None
            return q if p is None else p if q is None else (p[0], q[1])

    c = draw(st.integers(1, 3))
    return formula_monoid([(p, i) for p in points for i in range(c)], (unit, 0),
                          lambda p, q: (op(p[0], q[0]), (p[1] + q[1]) % c))


@st.composite
def transformation_monoids(draw):
    """k random self-maps of n points closed under composition, as a
    monoid with its faithful action on the points."""
    n = draw(st.integers(1, 4))
    point = st.integers(0, n - 1)
    gens = draw(st.lists(st.tuples(*[point] * n), min_size=1, max_size=3))
    m, act = transformation_monoid(gens)
    return m, act, ["".join(map(str, g)) for g in gens]
