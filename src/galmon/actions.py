"""Left actions of a finite monoid on finite sets.

An action is one table of rows: for each monoid element a, the carrier
indices of a.x in carrier order, the format of a monoid's own table, so
the law check on rows in galmon.monoid serves actions too.  Sites are
finite lists of named actions; their morphisms (all equivariant maps
between listed objects) are derived on demand and cached, never stored
by hand.  Out of a cyclic object X = A.x0, which every object the package
builds is, a map f is fixed by y = f(x0) as f(r.x0) = r.y (Yoneda), so
its hom sets are read off the target's table; out of other objects they
are searched by `propagate`, which stays the oracle.  Hom sets between
trivial actions contain every map, so those pairs are iterated lazily.
"""

import itertools

from .finset import (FinSet, FinMap, FunctionSet, SizingError, MAX_ENUMERATION,
                     hom_set, product, singleton)
from .monoid import (trivial_monoid, generators, laws_hold, acts_along, associativity_failures,
                     submonoid_tuples, is_subgroup, hopf_witness, is_hopf)


class ActionError(Exception):
    """Structural error in an action, equivariant map, or site."""


class MAction:
    """A monoid acting on a finite carrier: table[a] is the row of carrier
    indices of a.x, x in carrier order, for each element a in element order.
    The constructor checks a total dict (a, x) -> a.x of element names and
    converts it; package builders write rows through `_trusted`."""

    def __init__(self, monoid, carrier, act):
        if not isinstance(carrier, FinSet):
            carrier = FinSet(carrier)
        table = {}
        for a in monoid.elements:
            row = []
            for x in carrier:
                if (a, x) not in act:
                    raise ActionError("action table missing entry for (%s, %s)" % (a, x))
                y = act[(a, x)]
                if y not in carrier:
                    raise ActionError("image %s.%s = %r lies outside the carrier" % (a, x, y))
                row.append(carrier.index(y))
            table[a] = tuple(row)
        if len(act) != len(monoid) * len(carrier):
            extra = sorted(set(act) - set(itertools.product(monoid.elements, carrier)))
            raise ActionError("action table mentions %r outside the carrier" % (extra[0],))
        self.monoid, self.carrier, self.table = monoid, carrier, table
        self._trivial = self._order = self._cyclic = None
        self._built = False

    @classmethod
    def _trusted(cls, monoid, carrier, table):
        """An action on rows the caller has already built total, in element order."""
        M = cls.__new__(cls)
        M.monoid, M.carrier, M.table = monoid, carrier, table
        M._trivial = M._order = M._cyclic = None
        M._built = False
        return M

    def apply(self, a, x):
        return self.carrier.elements[self.table[a][self.carrier.index(x)]]

    def __eq__(self, other):
        return (isinstance(other, MAction) and self.monoid == other.monoid
                and self.carrier == other.carrier and self.table == other.table)

    def __hash__(self):
        return hash((self.monoid, self.carrier,
                     tuple(map(self.table.__getitem__, self.monoid.elements))))

    def __repr__(self):
        return "MAction(%r on %r)" % (self.monoid, self.carrier)

    @property
    def is_trivial_action(self):
        if self._trivial is None:
            ident = tuple(range(len(self.carrier)))
            self._trivial = all(row == ident for row in self.table.values())
        return self._trivial

    def _search_order(self):
        """Carrier indices by decreasing orbit size, ties in carrier order, and
        each index's rank in it: the order itself when that is the identity."""
        if self._order is None:
            sizes = [len(set(images)) for images in zip(*self.table.values())]
            order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
            rank = sorted(range(len(order)), key=order.__getitem__)
            self._order = (order, order) if order == sorted(order) else (order, rank)
        return self._order

    def _yoneda(self):
        """Read-off data of a cyclic action X = A.x0, x0 its first point
        whose orbit is X, or None when there is none: the representative
        r_p of each point, the first element with r_p.x0 = p (the unit for
        x0), and the distinct Schreier pairs (g r_p, r_{g.p}) of unequal
        elements, g among the monoid's generators."""
        if self._cyclic is None:
            n = len(self.carrier)
            x0 = next((p for p, column in enumerate(zip(*self.table.values()))
                       if len(set(column)) == n), None)
            if x0 is None:
                self._cyclic = False
                return None
            m = self.monoid
            first = {}
            for a, row in self.table.items():
                first.setdefault(row[x0], a)
            first[x0] = m.unit
            reps = tuple(map(first.__getitem__, range(n)))
            at = list(map(m.carrier.index, reps))
            pairs = {}
            for g in generators(m):
                row_g, mul_g = self.table[g], m.table[g]
                for p, r in enumerate(at):
                    a, b = m.elements[mul_g[r]], reps[row_g[p]]
                    if a != b:
                        pairs[(a, b)] = None
            self._cyclic = (reps, tuple(pairs))
        return self._cyclic or None


def validate_action(M):
    """Return a list of axiom violations; empty means M is an action.

    When the monoid's laws hold, checking (ab).x = a.(b.x) for b among its
    generators is enough, by induction along b = b'g.  Only when that fails,
    or the monoid's laws do, are all pairs scanned, which lists the
    violations in their order.
    """
    m = M.monoid
    if laws_hold(m) and acts_along(m, M.table, generators(m)):
        return []
    points = M.carrier.elements
    return (["unit fails: %s.%s = %s" % (m.unit, points[p], points[q])
             for p, q in enumerate(M.table[m.unit]) if q != p]
            + associativity_failures(m, M.table, points))


class EquivariantMap:
    """A carrier map commuting with the two actions, checked on construction."""

    def __init__(self, src, dst, fmap):
        if src.monoid != dst.monoid:
            raise ActionError("equivariant map needs a common monoid")
        if not isinstance(fmap, FinMap):
            fmap = FinMap(src.carrier, dst.carrier, fmap)
        for a in src.monoid.elements:
            for x in src.carrier:
                if fmap(src.apply(a, x)) != dst.apply(a, fmap(x)):
                    raise ActionError("not equivariant at (%s, %s)" % (a, x))
        self.src = src
        self.dst = dst
        self.map = fmap

    @classmethod
    def identity(cls, M):
        return cls(M, M, FinMap.identity(M.carrier))

    def __call__(self, x):
        return self.map(x)

    def __mul__(self, other):
        return EquivariantMap(other.src, self.dst, self.map * other.map)

    def __eq__(self, other):
        return (isinstance(other, EquivariantMap) and self.src == other.src
                and self.dst == other.dst and self.map == other.map)

    def __hash__(self):
        return hash((self.src, self.dst, self.map))

    def __repr__(self):
        return "EquivariantMap(%r)" % self.map


def _built(M):
    """Mark M as built by trivial_action, free_action or coset_action,
    which make an action whenever the monoid's laws hold."""
    M._built = True
    return M


def trivial_action(m, X):
    if not isinstance(X, FinSet):
        X = FinSet(X)
    return _built(MAction._trusted(m, X, dict.fromkeys(m.elements, tuple(range(len(X))))))


def free_action(m, X):
    """The monoid multiplying into the left factor of A x X."""
    if not isinstance(X, FinSet):
        X = FinSet(X)
    P = product(m.carrier, X)
    pairs = [P._pairs[p] for p in P]
    at = {bx: q for q, bx in enumerate(pairs)}
    return _built(MAction._trusted(m, P, {a: tuple(at[(m.mul(a, b), x)] for b, x in pairs)
                                          for a in m.elements}))


def restrict_action(h, M):
    """Pull an action on the target of h back along h."""
    if M.monoid != h.dst:
        raise ActionError("restriction needs an action of the hom's target")
    return MAction._trusted(h.src, M.carrier, {b: M.table[h(b)] for b in h.src.elements})


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


def _equivariant_tuples(M, N, gens=None):
    """Image-index tuples of the equivariant maps M -> N.

    Each point is a variable whose value is its image; f(x) = y forces
    f(a.x) = a.y for every monoid element a, or only for a in gens when
    given.  For actions that obey the laws, the monoid's generators force
    the same maps: every element is a generator or a product b'g of ones
    that are, and a map commuting with b' and g commutes with b'g.
    Solutions come out in image-tuple lexicographic order, the canonical
    hom order.  The search fixes the points with the largest orbits first,
    whose images force most others, and sorts back unless that order is
    the carrier order.
    """
    aM = M.table
    aN = N.table
    elems = M.monoid.elements if gens is None else gens
    order, rank = M._search_order()
    rules = [[(rank[aM[a][p]], aN[a]) for a in elems] for p in order]
    found = propagate([len(N.carrier)] * len(order), rules)
    if rank is order:
        return found  # searched in carrier order, so already canonical
    return sorted(tuple(map(t.__getitem__, rank)) for t in found)


def equivariant_maps(M, N):
    """All equivariant maps M -> N in canonical table order."""
    if M.monoid != N.monoid:
        raise ActionError("equivariant maps need a common monoid")
    xs = M.carrier.elements
    ys = N.carrier.elements
    out = []
    for t in _equivariant_tuples(M, N):
        fmap = FinMap(M.carrier, N.carrier, {x: ys[i] for x, i in zip(xs, t)})
        # the search already established equivariance
        em = EquivariantMap.__new__(EquivariantMap)
        em.src, em.dst, em.map = M, N, fmap
        out.append(em)
    return out


def fixed_points(M):
    """The subcarrier on which every monoid element acts as the identity."""
    rows = M.table.values()
    kept = [x for p, x in enumerate(M.carrier) if all(row[p] == p for row in rows)]
    F = FinSet(kept, check=False)
    return F, FinMap(F, M.carrier, {x: x for x in kept})


def check_trivial_fixed_adjunction(m, X, M):
    """Equivariant maps out of the trivial action on X correspond to plain
    maps into the fixed points of M; checks the bijection and spot-checks
    naturality by pre- and post-composition."""
    if not isinstance(X, FinSet):
        X = FinSet(X)
    EX = trivial_action(m, X)
    lhs = equivariant_maps(EX, M)
    F, _ = fixed_points(M)
    rhs = hom_set(X, F)
    if len(lhs) != len(rhs):
        return False
    down = {}
    for f in lhs:
        if any(f(x) not in F for x in X):
            return False  # images of an equivariant map must be fixed
        key = tuple(f(x) for x in X)
        if key in down:
            return False
        down[key] = FinMap(X, F, {x: f(x) for x in X})
    for g in rhs:
        if g.image_tuple() not in down:
            return False
    for g0 in hom_set(X, X)[:8]:
        Eg0 = EquivariantMap(EX, EX, g0)
        for k in equivariant_maps(M, M)[:8]:
            kF = FinMap(F, F, {x: k(x) for x in F})
            for f in lhs:
                composite = k * f * Eg0
                left = tuple(composite(x) for x in X)
                right = (kF * down[tuple(f(x) for x in X)] * g0).image_tuple()
                if left != right:
                    return False
    return True


def coinduct(h, N):
    """The right adjoint of restriction along h: maps from the target
    monoid (acting on itself through h) into N, translated on the right."""
    A = h.dst
    twisted = MAction._trusted(h.src, A.carrier, {b: A.table[h(b)] for b in h.src.elements})
    K = FunctionSet(A.carrier, N.carrier, [f.map.image_tuple()
                                           for f in equivariant_maps(twisted, N)])
    images = [K.map_images(e) for e in K]
    at = {t: q for q, t in enumerate(images)}
    table = {}
    for col, a in enumerate(A.elements):
        shift = [A.table[a2][col] for a2 in A.elements]
        table[a] = tuple(at[tuple(map(t.__getitem__, shift))] for t in images)
    return MAction._trusted(A, K, table)


def transpose_to_coinduced(h, M, f, K):
    """Send f: restrict(M) -> N to its mate M -> coinduct(N)."""
    table = {}
    for x in M.carrier:
        images = tuple(f(M.apply(a, x)) for a in h.dst.carrier)
        table[x] = K.carrier.map_element(images)
    return EquivariantMap(M, K, table)


def transpose_from_coinduced(h, M, N, g):
    """Send g: M -> coinduct(N) to its mate restrict(M) -> N."""
    HM = restrict_action(h, M)
    table = {x: g.dst.carrier.map_apply(g(x), h.dst.unit) for x in M.carrier}
    return EquivariantMap(HM, N, table)


def check_restriction_coinduction_adjunction(h, M, N):
    """Bijection and spot-checked naturality of restriction -| coinduction."""
    K = coinduct(h, N)
    HM = restrict_action(h, M)
    lhs = equivariant_maps(HM, N)
    rhs = equivariant_maps(M, K)
    if len(lhs) != len(rhs):
        return False
    rhs_keys = {g.map.image_tuple() for g in rhs}
    up = {}
    for f in lhs:
        g = transpose_to_coinduced(h, M, f, K)
        if g.map.image_tuple() not in rhs_keys:
            return False
        if transpose_from_coinduced(h, M, N, g) != f:
            return False
        up[f] = g
    if len(set(up.values())) != len(lhs):
        return False
    for u in equivariant_maps(M, M)[:8]:
        Hu = EquivariantMap(HM, HM, u.map)
        for f in lhs:
            if transpose_to_coinduced(h, M, f * Hu, K) != up[f] * u:
                return False
    for v in equivariant_maps(N, N)[:8]:
        Kv = EquivariantMap(K, K, {e: K.carrier.map_element(
            tuple(v(y) for y in K.carrier.map_images(e))) for e in K.carrier})
        for f in lhs:
            if transpose_to_coinduced(h, M, v * f, K) != Kv * up[f]:
                return False
    return True


class Site:
    """A finite list of named actions of one monoid.

    Morphisms between listed objects are all equivariant maps, derived on
    first use and listed in lexicographic order of their image tuples.  Out
    of a cyclic object X = A.x0 (G/H, F(1) and E(1) all are), each point p
    is r_p.x0, so a map f is fixed by y = f(x0) as f(p) = r_p.y, and f is
    equivariant exactly when (g r_p).y = r_{g.p}.y for each generator g
    and point p.  Those y are read off the target's table (for G/H, its
    points fixed by H), and the search over non-cyclic sources finds the
    same maps.  Pairs of trivial actions have every map as a morphism, so
    those hom sets are iterated lazily instead of being materialized.
    Objects that trivial_action, free_action and coset_action build are
    actions once the monoid's laws hold and are not checked again; other
    objects are.
    """

    def __init__(self, monoid, objects):
        objects = list(objects)
        names = [name for name, _ in objects]
        if len(set(names)) != len(names):
            raise ActionError("site object names must be distinct")
        for name, act in objects:
            if act.monoid != monoid:
                raise ActionError("site object %r acts for the wrong monoid" % name)
            if act._built and laws_hold(monoid):
                continue
            bad = validate_action(act)
            if bad:
                raise ActionError("site object %r is not an action: %s" % (name, bad[0]))
        self.monoid = monoid
        self.names = tuple(names)
        self.objects = tuple(act for _, act in objects)
        self._homs = {}
        self._hash = None

    @property
    def nobj(self):
        return len(self.names)

    def __eq__(self, other):
        return (self is other or isinstance(other, Site) and self.monoid == other.monoid
                and self.names == other.names and self.objects == other.objects)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.monoid, self.names, self.objects))
        return self._hash

    def __repr__(self):
        return "Site(%s)" % ", ".join(self.names)

    def _pair_is_lazy(self, i, j):
        return self.objects[i].is_trivial_action and self.objects[j].is_trivial_action

    def iter_hom_tuples(self, i, j):
        """Image-index tuples of all morphisms object i -> object j."""
        if self._pair_is_lazy(i, j):
            nx = len(self.objects[i].carrier)
            ny = len(self.objects[j].carrier)
            if nx == 0:
                return iter([()])
            return itertools.product(range(ny), repeat=nx)
        return iter(self._filtered(i, j))

    def generating_tuples(self, i, j):
        """Morphisms i -> j that, composed with the other objects' generators,
        give every morphism i -> j.

        Pairs of trivial actions have every map as a morphism; a transposition,
        an n-cycle and a rank-(n-1) idempotent generate all self-maps of an
        n-point set, and one map of largest rank then reaches every map between
        two of them.  Other pairs list all their morphisms.
        """
        if not self._pair_is_lazy(i, j):
            return self._filtered(i, j)
        nx = len(self.objects[i].carrier)
        ny = len(self.objects[j].carrier)
        if i != j:
            return [tuple(min(p, ny - 1) for p in range(nx))] if nx and ny else []
        if nx < 2:
            return []
        rest = tuple(range(2, nx))
        return [(1, 0) + rest, tuple(range(1, nx)) + (0,), (0, 0) + rest]

    def _filtered(self, i, j):
        if (i, j) not in self._homs:
            src, dst = self.objects[i], self.objects[j]
            cyclic = src._yoneda()
            if cyclic is None:
                # the objects are actions, so the generators force every element
                homs = _equivariant_tuples(src, dst, generators(self.monoid))
            else:
                reps, pairs = cyclic
                rows = dst.table
                ys = range(len(dst.carrier))
                for a, b in pairs:
                    row_a, row_b = rows[a], rows[b]
                    ys = [y for y in ys if row_a[y] == row_b[y]]
                homs = sorted(zip(*(map(rows[r].__getitem__, ys) for r in reps)))
            self._homs[(i, j)] = tuple(homs)
        return self._homs[(i, j)]


def coset_action(m, sub_elements):
    """Left translation on left cosets of a subgroup; labels are the cosets.

    The left cosets partition the group, so each is computed once, from
    its first element, which becomes its representative.
    """
    subset = tuple(sub_elements)
    label_of = {}
    rep = {}
    for a in m.elements:
        if a not in label_of:
            coset = sorted({m.mul(a, s) for s in subset})
            label = "{%s}" % ",".join(coset)
            rep[label] = a
            for b in coset:
                label_of[b] = label
    carrier = FinSet(sorted(rep), check=False)
    at = [carrier.index(label_of[b]) for b in m.elements]
    cols = [m.carrier.index(rep[c]) for c in carrier]
    M = MAction._trusted(m, carrier, {a: tuple(at[m.table[a][r]] for r in cols)
                                      for a in m.elements})
    # only a subgroup's cosets are sure to make an action; Site checks the rest
    sub = set(map(m.carrier.index, subset))
    if is_hopf(m) and m.carrier.index(m.unit) in sub and all(
            m.table[a][b] in sub for a in subset for b in sub):
        _built(M)
    return M


def canonical_site(m, recipe, custom=()):
    """Assemble a site from '+'-joined builder names.

    Builders: 'free' (the monoid on itself, paired with a point), 'trivial'
    (a one-point trivial action), 'cosets' (left cosets of every subgroup;
    groups only).  Extra named actions come in through `custom`.
    """
    objects = []
    for token in recipe.split("+"):
        token = token.strip()
        if token == "free":
            objects.append(("F(1)", free_action(m, singleton())))
        elif token == "trivial":
            objects.append(("E(1)", trivial_action(m, singleton())))
        elif token == "cosets":
            if not is_hopf(m):
                raise ActionError("coset site needs a group; %r has no inverse"
                                  % hopf_witness(m))
            for elements in submonoid_tuples(m):
                if is_subgroup(m, elements):
                    name = "G/{%s}" % ",".join(elements)
                    objects.append((name, coset_action(m, elements)))
        elif token == "custom":
            objects.extend(custom)
        else:
            raise ActionError("unknown site builder %r" % token)
    return Site(m, objects)


def default_site(m):
    """Cosets plus the free object for groups; free plus trivial otherwise."""
    if is_hopf(m):
        return canonical_site(m, "cosets+free")
    return canonical_site(m, "free+trivial")


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
