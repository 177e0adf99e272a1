"""Left actions of a finite monoid on finite sets.

An action is one tuple of rows indexed by element: row i holds the
carrier indices of a.x in carrier order, for a the i-th element, the
format of a monoid's own table, so the law check on rows in galmon.monoid
serves actions too, and builders multiply on element indices.  An
equivariant map is its image-index tuple (the index of f(x), x in carrier
order) in hom sets and in sites.  Sites are
finite lists of named actions; their morphisms (all equivariant maps
between listed objects) are derived on demand and cached, never stored
by hand.  Every action is presented by generating points x_i and
relations, so an equivariant map is fixed by its values y_i = f(x_i) as
f(r.x_i) = r.y_i and its hom set, `hom_tuples`, is read off the target's
table, one generating point for the cyclic objects the package builds.
Hom sets between trivial actions contain every map, so those pairs are
iterated lazily.  The same read-off, `read_off`, finds the wedge
families of `galmon.ends`.  The fixed points of an action are the maps
into it from the one-point trivial action (trivial action -| fixed
points), and `coinduct` is the right adjoint of `restrict_action`.
"""

import itertools
import operator

from . import finset
from .finset import FinSet, map_label, product, singleton
from .monoid import (generators, laws_hold, acts_along, associativity_failures,
                     submonoid_tuples, is_subgroup, hopf_witness, is_hopf)


class ActionError(Exception):
    """Structural error in an action, equivariant map, or site."""


class MAction:
    """A monoid acting on a finite carrier: table is a tuple of rows in
    element order, and table[i] is the row of carrier indices of a.x, x in
    carrier order, for a the i-th element.  The constructor checks a total
    dict (a, x) -> a.x of element names and converts it, and `apply` acts
    on names; package builders write rows through `_trusted`."""

    def __init__(self, monoid, carrier, act):
        if not isinstance(carrier, FinSet):
            carrier = FinSet(carrier)
        table = []
        for a in monoid.elements:
            row = []
            for x in carrier:
                if (a, x) not in act:
                    raise ActionError("action table missing entry for (%s, %s)" % (a, x))
                y = act[(a, x)]
                if y not in carrier:
                    raise ActionError("image %s.%s = %r lies outside the carrier" % (a, x, y))
                row.append(carrier.index(y))
            table.append(tuple(row))
        if len(act) != len(monoid) * len(carrier):
            extra = sorted(set(act) - set(itertools.product(monoid.elements, carrier)))
            raise ActionError("action table mentions %r outside the carrier" % (extra[0],))
        self.monoid, self.carrier, self.table = monoid, carrier, tuple(table)
        self._trivial = self._pres = None
        self._built = False

    @classmethod
    def _trusted(cls, monoid, carrier, table):
        """An action on rows the caller has already built total, in element order."""
        M = cls.__new__(cls)
        M.monoid, M.carrier, M.table = monoid, carrier, table
        M._trivial = M._pres = None
        M._built = False
        return M

    def apply(self, a, x):
        row = self.table[self.monoid.carrier.index(a)]
        return self.carrier.elements[row[self.carrier.index(x)]]

    def __eq__(self, other):
        return (isinstance(other, MAction) and self.monoid == other.monoid
                and self.carrier == other.carrier and self.table == other.table)

    def __hash__(self):
        return hash((self.monoid, self.carrier, self.table))

    def __repr__(self):
        return "MAction(%r on %r)" % (self.monoid, self.carrier)

    @property
    def is_trivial_action(self):
        if self._trivial is None:
            ident = tuple(range(len(self.carrier)))
            self._trivial = all(row == ident for row in self.table)
        return self._trivial

    def _presentation(self):
        """The action as generated by points x_0..x_{k-1} subject to relations.

        Points are taken largest orbit first, ties in carrier order, each
        not yet reached from an earlier one.  Point p belongs to the first
        x_i reaching it, and r_p is the first element with r_p.x_i = p, the
        unit at x_i.  A map with f(x_i) = y_i commutes with a generator g at
        p iff (g r_p).y_i = r_{g.p}.y_j, j <= i the generating point of g.p.
        Returns the generating points; per x_i the r_p of its points in
        carrier order; where each point falls when they are listed x_i by
        x_i (None when x_0 is the only one); and per x_i its distinct
        relations (a, j, b), a.y_i = b.y_j.  Elements are element indices.
        """
        if self._pres is None:
            m, n, rows = self.monoid, len(self.carrier), self.table
            # a point whose orbit is everything comes first and is the only one
            full = next((p for p, col in enumerate(zip(*rows)) if len(set(col)) == n), None)
            order = [full] if full is not None else sorted(
                range(n), key=lambda p: len({row[p] for row in rows}), reverse=True)
            owner, reps, points = [None] * n, [None] * n, []
            for x in order:
                if owner[x] is None:
                    for a, row in enumerate(rows):
                        if owner[row[x]] is None:
                            owner[row[x]], reps[row[x]] = len(points), a
                    reps[x] = m.carrier.index(m.unit)
                    points.append(x)
            blocks = [[p for p in range(n) if owner[p] == i] for i in range(len(points))]
            listed = [p for block in blocks for p in block]
            pos = None if len(blocks) == 1 else sorted(range(n), key=listed.__getitem__)
            relations = [{} for _ in points]
            for g in generators(m):
                row_g, mul_g = rows[g], m.table[g]
                for p, q in enumerate(row_g):
                    a, b = mul_g[reps[p]], reps[q]
                    if a != b or owner[p] != owner[q]:
                        relations[owner[p]][(a, owner[q], b)] = None
            self._pres = (tuple(points), [tuple(map(reps.__getitem__, b)) for b in blocks], pos,
                          list(map(tuple, relations)))
        return self._pres


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
             for p, q in enumerate(M.table[m.carrier.index(m.unit)]) if q != p]
            + associativity_failures(m, M.table, points))


def _built(M):
    """Mark M as built by trivial_action, free_action or, for the subgroups
    canonical_site lists, coset_action, which make an action whenever the
    monoid's laws hold."""
    M._built = True
    return M


def _getter(ks):
    """The tuple of a row's items at ks; itemgetter alone gives a bare item for one index."""
    return operator.itemgetter(*ks) if len(ks) > 1 else lambda r: tuple(map(r.__getitem__, ks))


def trivial_action(m, X):
    if not isinstance(X, FinSet):
        X = FinSet(X)
    return _built(MAction._trusted(m, X, (tuple(range(len(X))),) * len(m)))


def free_action(m, X):
    """The monoid multiplying into the left factor of A x X."""
    if not isinstance(X, FinSet):
        X = FinSet(X)
    P = product(m.carrier, X)
    pairs = [(m.carrier.index(b), x) for b, x in map(P._pairs.__getitem__, P)]
    at = {bx: q for q, bx in enumerate(pairs)}
    return _built(MAction._trusted(m, P, tuple(tuple(at[(row[b], x)] for b, x in pairs)
                                               for row in m.table)))


def restrict_action(h, M):
    """Pull an action on the target of h back along h."""
    if M.monoid != h.dst:
        raise ActionError("restriction needs an action of the hom's target")
    return MAction._trusted(h.src, M.carrier, h.pull_back(M.table))


def read_off(reps, relations, pos, rows, sizes, layer="actions", made=0):
    """Sorted image tuples of the maps out of a presentation (see
    `MAction._presentation`): generating point i takes a value y_i in
    range(sizes[i]) that satisfies its relations (a, j, b), rows[a][y_i] ==
    rows[b][y_j], and its points then go to rows[r][y_i] for r in reps[i].
    The y_i are chosen in turn, depth first.  Points are listed block by
    block; pos, unless None, gives each point's place in that listing.
    Every value tried and image written adds to `made`, the caller's count
    so far, against finset.MAX_ENUMERATION; a refusal names `layer`."""
    if not reps:
        return [()]  # nothing to map: one map out, the empty one
    limit, out, last = finset.MAX_ENUMERATION, [], len(reps) - 1
    stack = [(0, (), ())]  # generating point i, images of the points before it, y_0..y_{i-1}
    while stack:
        i, head, chosen = stack.pop()
        ny = sizes[i]
        ys = range(ny)
        for a, j, b in relations[i]:  # for j < i, b.y_j is one value for every y
            row_a, row_b = rows[a], rows[b] if j == i else (rows[b][chosen[j]],) * ny
            ys = [y for y in ys if row_a[y] == row_b[y]]
        made += ny + len(ys) * len(reps[i])
        if made > limit:
            raise finset.refusal(layer, "%d candidate assignments" % made)
        images = zip(*(map(rows[r].__getitem__, ys) for r in reps[i]))
        if i == last:
            out.extend(map(head.__add__, images) if head else images)
        else:
            stack.extend((i + 1, head + t, chosen + (y,)) for y, t in zip(ys, images))
    return sorted(out) if pos is None else sorted(tuple(map(f.__getitem__, pos)) for f in out)


def hom_tuples(M, N):
    """Image-index tuples of the equivariant maps M -> N, in lexicographic
    order, the canonical hom order.  M and N must be actions of one monoid,
    so that a map commuting with the monoid's generators commutes with
    every element.  A map is f(p) = r_p.y_i on the points of x_i, read off
    M's presentation and N's table."""
    if M.monoid != N.monoid:
        raise ActionError("actions.hom_tuples: source and target act for different monoids")
    points, reps, pos, relations = M._presentation()
    return read_off(reps, relations, pos, N.table, [len(N.carrier)] * len(points))


def coinduct(h, N):
    """The right adjoint of restriction along h: maps from the target
    monoid (acting on itself through h) into N, translated on the right.
    N must be an action of h's source; ActionError names its first
    violation, or the mismatch of monoids, otherwise.  A translate that is
    not among the maps read off, which only a faulty hom set makes, is None
    in the table."""
    bad = validate_action(N)
    if bad:
        raise ActionError("actions.coinduct: N is not an action: %s" % bad[0])
    A, ys = h.dst, N.carrier.elements
    twisted = MAction._trusted(h.src, A.carrier, h.pull_back(A.table))
    labelled = {map_label(A.elements, tuple(map(ys.__getitem__, t))): t
                for t in hom_tuples(twisted, N)}
    K = FinSet(labelled, check=False)
    images = list(map(labelled.__getitem__, K))
    at = {t: q for q, t in enumerate(images)}
    return MAction._trusted(A, K, tuple(tuple(at.get(tuple(map(t.__getitem__, shift)))
                                              for t in images) for shift in zip(*A.table)))


class Site:
    """A finite list of named actions of one monoid.

    Morphisms between listed objects are all equivariant maps, derived on
    first use by `hom_tuples` and listed in lexicographic order of their
    image tuples.  Out of a cyclic object X = A.x0 (G/H, F(1) and E(1) all
    are), each point p is r_p.x0, so a map f is fixed by y = f(x0) as
    f(p) = r_p.y, and f is equivariant exactly when (g r_p).y = r_{g.p}.y
    for each generator g and point p.  These three are induced
    from B = Stab(x0), X = A ⊗_B 1, so those y are exactly the points
    fixed by B (a conjugate of H for G/H, {e} for F(1), A for E(1)), which
    `galois` reads off masks instead of hom sets.
    Other objects have more generating points, tied by relations.  Pairs
    of trivial actions have every map as a morphism, so those hom sets are
    iterated lazily instead of being materialized.  Objects marked `_built`
    (by trivial_action, free_action, and canonical_site for each G/H) are
    actions once the monoid's laws hold and are not checked again; others are.
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

    @property
    def nobj(self):
        return len(self.names)

    def __eq__(self, other):
        return (self is other or isinstance(other, Site) and self.monoid == other.monoid
                and self.names == other.names and self.objects == other.objects)

    def __hash__(self):
        return hash((self.monoid, self.names, self.objects))

    def __repr__(self):
        return "Site(%s)" % ", ".join(self.names)

    def _pair_is_lazy(self, i, j):
        return self.objects[i].is_trivial_action and self.objects[j].is_trivial_action

    def iter_hom_tuples(self, i, j):
        """Image-index tuples of all morphisms object i -> object j."""
        if self._pair_is_lazy(i, j):
            return itertools.product(range(len(self.objects[j].carrier)),
                                     repeat=len(self.objects[i].carrier))
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
            self._homs[(i, j)] = tuple(hom_tuples(self.objects[i], self.objects[j]))
        return self._homs[(i, j)]


def coset_action(m, sub_elements):
    """Left translation on the left cosets of a subgroup, labelled by their
    elements and represented by their first, found in one pass; canonical_site
    marks them `_built`, and Site checks the rows made from any other subset
    that holds the unit.  A subset without the unit is refused here."""
    ks = list(map(m.carrier._lookup.__getitem__, sub_elements))
    if m.carrier._lookup[m.unit] not in ks:
        raise ActionError("coset action needs a subgroup; {%s} misses the unit %s"
                          % (",".join(map(m.elements.__getitem__, ks)), m.unit))
    owner, reps, members = [None] * len(m), [], _getter(ks)
    for a, row in enumerate(m.table):
        if owner[a] is None:
            owner[a] = len(reps)  # a = a·e, set here too in case the table breaks the unit law
            for b in members(row):
                if owner[b] is None:
                    owner[b] = len(reps)
            reps.append(a)
    names = [[] for _ in reps]
    for c, name in zip(owner, m.elements):
        names[c].append(name)
    labels = ["{%s}" % ",".join(ns) for ns in names]
    carrier = FinSet(labels, check=False)
    at = list(map(carrier._lookup.__getitem__, map(labels.__getitem__, owner)))  # coset places
    get = _getter(sorted(reps, key=at.__getitem__))  # a -> a·r, r the representatives in order
    rows = map(map, itertools.repeat(at.__getitem__), map(get, m.table))
    return MAction._trusted(m, carrier, tuple(map(tuple, rows)))


def canonical_site(m, recipe, custom=()):
    """Assemble a site from '+'-joined builder names.

    Builders: 'free' (the monoid on itself, paired with a point), 'trivial'
    (a one-point trivial action), 'cosets' (left cosets of every subgroup;
    groups only).  Extra named actions come in through `custom`.  The
    objects' table cells, |A| times their points, count against
    finset.MAX_ENUMERATION before any object is built.
    """
    plan = []  # (name, points, a function that builds the object)
    for token in recipe.split("+"):
        token = token.strip()
        if token == "free":
            plan.append(("F(1)", len(m), lambda: free_action(m, singleton())))
        elif token == "trivial":
            plan.append(("E(1)", 1, lambda: trivial_action(m, singleton())))
        elif token == "cosets":
            if not is_hopf(m):
                raise ActionError("coset site needs a group; %r has no inverse"
                                  % hopf_witness(m))
            plan.extend(("G/{%s}" % ",".join(sub), len(m) // len(sub),
                         lambda sub=sub: _built(coset_action(m, sub)))
                        for sub in submonoid_tuples(m) if is_subgroup(m, sub))
        elif token == "custom":
            plan.extend((name, len(act.carrier), lambda act=act: act) for name, act in custom)
        else:
            raise ActionError("unknown site builder %r" % token)
    cells = len(m) * sum(points for _, points, _ in plan)
    if cells > finset.MAX_ENUMERATION:
        raise finset.refusal("actions.canonical_site", "%d table cells" % cells)
    return Site(m, [(name, build()) for name, _, build in plan])


def default_site(m):
    """Cosets plus the free object for groups; free plus trivial otherwise."""
    if is_hopf(m):
        return canonical_site(m, "cosets+free")
    return canonical_site(m, "free+trivial")

