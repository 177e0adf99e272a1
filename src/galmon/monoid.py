"""Finite monoids presented by multiplication tables.

A monoid's table is its action on itself, in the row format of actions (a
tuple of rows indexed by element), so one along-generators check (Light's
test) and one associativity scan over rows serve both the monoid law and
the action law.

Also the structure the product monad carries: homomorphisms, each its
index tuple into the target's carrier and checked pair by pair on those
indices, generating sets of element indices (on which the laws are
checked), submonoids (each found once by prefix-preserving closure
extension, a subtree of extensions that close by themselves listed in one
step, and refused past MAX_MATERIALIZED of them or MAX_ENUMERATION closure
products made), and the Hopf test, which reads off the rows
whether the fusion map (a, b) -> (a, ab) is a bijection, that is, whether
the monoid is a group with an antipode.
"""

import itertools

from . import finset
from .finset import FinSet


class MonoidError(Exception):
    """Structural error in a monoid, hom, or substructure."""


class NotHopfError(MonoidError):
    """Raised when an antipode is requested but some element is not invertible."""

    def __init__(self, witness):
        super().__init__("not Hopf: element %r has no two-sided inverse" % witness)
        self.witness = witness


class Monoid:
    """A finite monoid: carrier, unit, and total multiplication table.

    table[i] is the row of element indices of ab, b in element order, for a
    the i-th element: the table of the monoid acting on itself.  Names stay
    at the edges: the constructor checks a total dict (a, b) -> ab of names
    and converts it, as `from_rows` does row objects a -> {b: ab}, and `mul`
    takes names; package builders write rows through `_trusted`.  The laws
    are validate_monoid's.  The instance keeps its generators, laws'
    verdict, units, submonoids and Hopf verdict.
    """

    def __init__(self, carrier, unit, table):
        if not isinstance(carrier, FinSet):
            carrier = FinSet(carrier)
        rows = Monoid.from_rows(carrier, unit, {a: {b: table[(a, b)] for b in carrier
                                                     if (a, b) in table} for a in carrier}).table
        if len(table) != len(carrier) ** 2:
            extra = sorted(set(table) - set(itertools.product(carrier, repeat=2)))
            raise MonoidError("table mentions %r outside the carrier" % (extra[0],))
        self.carrier, self.unit, self.table = carrier, unit, rows
        self._gens = self._lawful = self._units = self._subs = self._hopf = None

    @classmethod
    def from_rows(cls, carrier, unit, rows):
        """The monoid with ab = rows[a][b], checked, cell by cell in order,
        as the constructor checks a table."""
        if unit not in carrier:
            raise MonoidError("unit %r is not in the carrier" % unit)
        index, table = carrier.index, []
        for a in carrier:
            row = rows[a]
            try:
                table.append(tuple([index(row[b]) for b in carrier]))
            except KeyError:
                b = next(b for b in carrier if b not in row or row[b] not in carrier)
                raise MonoidError("table missing entry for (%s, %s)" % (a, b) if b not in row
                                  else "product %s*%s = %r lies outside the carrier"
                                  % (a, b, row[b]))
        return cls._trusted(carrier, unit, tuple(table))

    @classmethod
    def _trusted(cls, carrier, unit, table):
        """A monoid on rows the caller has already built total, in element order."""
        m = cls.__new__(cls)
        m.carrier, m.unit, m.table = carrier, unit, table
        m._gens = m._lawful = m._units = m._subs = m._hopf = None
        return m

    @property
    def elements(self):
        return self.carrier.elements

    def mul(self, a, b):
        index = self.carrier.index
        return self.carrier.elements[self.table[index(a)][index(b)]]

    def __len__(self):
        return len(self.carrier)

    def __eq__(self, other):
        return (self is other or isinstance(other, Monoid) and self.carrier == other.carrier
                and self.unit == other.unit and self.table == other.table)

    def __hash__(self):
        return hash((self.carrier.elements, self.unit, self.table))

    def __repr__(self):
        return "Monoid(%s; unit=%s)" % (",".join(map(str, self.elements)), self.unit)

    def units(self):
        """The elements with a two-sided inverse, found once."""
        if self._units is None:
            self._units = frozenset(a for a in self.elements if self.inverse(a) is not None)
        return self._units

    def inverse(self, a):
        """The two-sided inverse of a, or None."""
        u, i = self.carrier.index(self.unit), self.carrier.index(a)
        for b, ab, row_b in zip(self.elements, self.table[i], self.table):
            if ab == u and row_b[i] == u:
                return b
        return None


def generators(m):
    """A generating set, as element indices in order: each element not yet
    reached joins it, and what it reaches is closed under right
    multiplication.

    Every element is a generator or a product ((e g1) g2) ... gk of the
    unit and generators; when the left unit law holds, every element is
    such a product.
    """
    if m._gens is None:
        unit = m.carrier.index(m.unit)
        mask, members, gens = 1 << unit, [unit], ()
        for a in range(len(m)):
            if not mask >> a & 1:
                gens += (a,)
                mask, new, _ = _close(m.table, mask, members, gens)
                members += new
        m._gens = gens
    return m._gens


def acts_along(m, table, gens):
    """True iff the rows `table` (one per element of m, in element order,
    over any points) obey the action law along the element indices gens:
    the unit's row is the identity, and row(ag) = row(a)∘row(g) for every
    element a and every g in gens.  On m's own table this is Light's test."""
    if table[m.carrier.index(m.unit)] != tuple(range(len(table[0]))):
        return False
    for g in gens:
        row_g = table[g]
        for row_a, products in zip(table, m.table):
            if table[products[g]] != tuple(map(row_a.__getitem__, row_g)):
                return False
    return True


def associativity_failures(m, table, points):
    """Every (a, b, x) with (ab).x != a.(b.x) for the rows table, one per
    element, over the named points, in that order, as violation lines."""
    out = []
    for a, row_a, products in zip(m.elements, table, m.table):
        for b, row_b, ab in zip(m.elements, table, products):
            for x, left, right in zip(points, table[ab], map(row_a.__getitem__, row_b)):
                if left != right:
                    out.append("associativity fails at (%s, %s, %s): %s vs %s"
                               % (a, b, x, points[left], points[right]))
    return out


def validate_monoid(m):
    """Return a list of law violations; empty means m is a monoid.

    Associativity is the action law of m on itself.  Once the unit laws
    hold, Light's test decides it: the elements g with row(xg) =
    row(x)∘row(g) for all x contain the unit and are closed under products,
    so it is enough that the generators are among them.  Only when that
    fails are all triples scanned, which lists the violations in their
    order.  The verdict is kept on m.
    """
    out = []
    for a in m.elements:
        if m.mul(m.unit, a) != a:
            out.append("unit law fails: %s*%s = %s" % (m.unit, a, m.mul(m.unit, a)))
        if m.mul(a, m.unit) != a:
            out.append("unit law fails: %s*%s = %s" % (a, m.unit, m.mul(a, m.unit)))
    if out or not acts_along(m, m.table, generators(m)):
        out += associativity_failures(m, m.table, m.elements)
    m._lawful = not out
    return out


def laws_hold(m):
    """True iff validate_monoid(m) is empty; computed once per instance."""
    if m._lawful is None:
        validate_monoid(m)
    return m._lawful


def trivial_monoid():
    return Monoid(FinSet(("e",)), "e", {("e", "e"): "e"})


class MonoidHom:
    """A monoid hom given by element names; `images` is the index in
    dst.carrier of each src element's image, in element order.  The
    constructor raises the first failure: an image undefined or outside dst,
    a key outside src (FinSetErrors), the unit, then the first (a, b) in
    order with h(ab) != h(a)h(b)."""

    def __init__(self, src, dst, assignment):
        finset.check_total(src.carrier, dst.carrier, assignment)
        if assignment[src.unit] != dst.unit:
            raise MonoidError("hom sends unit to %r" % assignment[src.unit])
        images = tuple(map(dst.carrier.index, map(assignment.__getitem__, src.elements)))
        for a, x, products in zip(src.elements, images, src.table):
            row_x = dst.table[x]
            for b, y, ab in zip(src.elements, images, products):
                if images[ab] != row_x[y]:
                    raise MonoidError("hom breaks multiplicativity at (%s, %s)" % (a, b))
        self.src, self.dst, self.images = src, dst, images

    @classmethod
    def _trusted(cls, src, dst, images):
        """A hom the caller has already checked unital and multiplicative."""
        h = cls.__new__(cls)
        h.src, h.dst, h.images = src, dst, tuple(images)
        return h

    def __call__(self, b):
        return self.dst.elements[self.images[self.src.carrier.index(b)]]

    def pull_back(self, table):
        """The rows of an action of dst (or its table), one per src element: its image's."""
        return tuple(map(table.__getitem__, self.images))

    def __eq__(self, other):
        return (isinstance(other, MonoidHom) and self.src == other.src
                and self.dst == other.dst and self.images == other.images)

    def __hash__(self):
        return hash((self.src, self.dst, self.images))


def kernel_pairs(dom, images):
    """Pairs of dom that a map with these images, in dom's order,
    identifies: for a monoid map, the congruence it induces on the source."""
    return tuple((a, b) for (a, x), (b, y) in itertools.combinations(zip(dom, images), 2)
                 if x == y)


def submonoid(m, subset):
    """The submonoid on the given closed subset, with its inclusion hom."""
    elems = tuple(sorted(subset))
    for k, a in enumerate(elems):
        if a not in m.carrier:
            raise MonoidError("submonoid element %r is not in the monoid" % (a,))
        if k and a == elems[k - 1]:
            raise MonoidError("submonoid element %r is repeated" % (a,))
    if m.unit not in elems:
        raise MonoidError("submonoid must contain the unit")
    cols = list(map(m.carrier.index, elems))
    at = {c: k for k, c in enumerate(cols)}
    table = []
    for a, col in zip(elems, cols):
        row = tuple(map(m.table[col].__getitem__, cols))
        for b, c in zip(elems, row):
            if c not in at:
                raise MonoidError("subset not closed: %s*%s = %s escapes"
                                  % (a, b, m.elements[c]))
        table.append(tuple(map(at.__getitem__, row)))
    # the checks above prove the table total and the inclusion a hom
    S = Monoid._trusted(FinSet(elems, check=False), m.unit, tuple(table))
    return S, MonoidHom._trusted(S, m, cols)


def _close(mul, mask, members, gens, floor=0):
    """Close a submonoid (bitmask and member indices) under right
    multiplication after adjoining gens[-1]; gens generate the result.
    Returns the mask, the members added and the number of products made;
    the mask is None, and the closure cut short, once an index below floor
    would join.  The count is read off where the loops stopped (members,
    new and gens hold distinct indices), not kept in them.  An extension
    submonoid_tuples closes by itself is charged the same count."""
    a = gens[-1]
    new = []
    for s in members:
        t = mul[s][a]
        if not mask >> t & 1:
            if t < floor:
                return None, new, members.index(s) + 1
            mask |= 1 << t
            new.append(t)
    for t in new:
        row = mul[t]
        for g in gens:
            u = row[g]
            if not mask >> u & 1:
                if u < floor:
                    return None, new, (len(members) + new.index(t) * len(gens)
                                       + gens.index(g) + 1)
                mask |= 1 << u
                new.append(u)
    return mask, new, len(members) + len(new) * len(gens)


def submonoid_tuples(m):
    """The element tuples of all submonoids, ordered by size then element list.

    Prefix-preserving closure extension (Uno, Kiyomi & Arimura, "LCM ver. 2",
    2004): the submonoid S reached by adjoining index c is extended by each
    index a > c outside S, and the closure is kept only if it adds no index
    below a, so each submonoid is found once.  Only the products s*a and
    their right multiples by the generators can be new, and the closure stops
    once an index below a would join: for a group, one a per right coset Sa
    is closed (Neubüser's cut).  Once m's laws hold, S + a is closed as it
    stands, and charged what _close would make, when a is an idempotent with
    s*a in {s, a} for s in S and a*g in {a, g} for the generators g: a*s
    stays in S + a along s's generator word.  When every index in rest, those
    above the last one adjoined and outside S, is such an idempotent for the
    masks S + rest and gens + rest (both tests are monotone), the subtree
    below S is every S + B, B within rest, generated by gens + B.  If rest
    has two or more indices and no limit could fire inside, the subtree is
    listed in one step, by doubling, each name put in place as it joins, and
    charged in closed form what the walk would make.  Indices number the
    elements in reverse, so the element lists of one size ascend as the
    masks descend.  The products the closures make count against
    MAX_ENUMERATION, and the submonoids against MAX_MATERIALIZED.  Tuples
    and generators stay on m.
    """
    if m._subs is not None:
        return list(m._subs[0])
    elems = m.elements[::-1]
    n = len(elems)
    mul = [[n - 1 - c for c in reversed(row)] for row in reversed(m.table)]
    unit = elems.index(m.unit)
    # for idempotents a but the unit (bits idem): bits s with s*a not in {s, a} and g
    # with a*g not in {a, g}; -1 for a not idempotent
    off_left, off_right, idem = [-1] * n, [-1] * n, 0
    for a in range(n) if laws_hold(m) else ():
        if mul[a][a] == a != unit:
            idem |= 1 << a
            off_left[a] = sum(1 << s for s in range(n) if mul[s][a] != s and mul[s][a] != a)
            off_right[a] = sum(1 << g for g in range(n) if mul[a][g] != a and mul[a][g] != g)
    keys, subs, gens_of, products, full = [], [], [], 0, (1 << n) - 1
    limit, most = finset.MAX_ENUMERATION, finset.MAX_MATERIALIZED
    stack = [(1 << unit, [unit], (), 0, -1)]
    while stack:
        mask, members, gens, gmask, core = stack.pop()
        keys.append((len(members) << n) - mask)
        subs.append(tuple([elems[i] for i in sorted(members, reverse=True)]))
        gens_of.append(gmask)
        # every index above core in S or idempotent: is the subtree S + B, B within rest?
        if idem >> core + 1 and (mask | idem) >> core + 1 == full >> core + 1:
            rest, start = (full ^ mask) >> core + 1 << core + 1, len(subs) - 1
            top, low = mask | rest, gmask | rest
            bits = [a for a in range(core + 1, n) if rest >> a & 1]
            base, k = len(members) + len(gens) + 1, len(bits)
            made = (base + k - 2 << k) - base + 2  # sum of 2^j (base + j), j < k
            if (k > 1 and start + (1 << k) <= most and products + made <= limit
                    and not any(off_left[a] & top or off_right[a] & low for a in bits)):
                products += made
                for a in bits:  # ascending, so a's name goes after those of S above a
                    p, name, step = (mask >> a).bit_count(), (elems[a],), full + 1 - (1 << a)
                    subs += [t[:p] + name + t[p:] for t in subs[start:]]
                    keys += [key + step for key in keys[start:]]
                    gens_of += [g | 1 << a for g in gens_of[start:]]
                continue
        if len(subs) > most:
            raise finset.refusal("monoid.enumerate_submonoids",
                                 "more than %d submonoids" % most, most)
        for a in range(core + 1, n):
            if mask >> a & 1:
                continue
            if not mask & off_left[a] and not gmask & off_right[a]:
                closed, new, made = mask | 1 << a, [a], len(members) + len(gens) + 1
            else:
                closed, new, made = _close(mul, mask, members, gens + (a,), a)
            products += made
            if products > limit:
                raise finset.refusal("monoid.enumerate_submonoids",
                                     "%d closure products" % products)
            if closed is not None:
                stack.append((closed, members + new, gens + (a,), gmask | 1 << a, a))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    m._subs = tuple(map(subs.__getitem__, order)), tuple(map(gens_of.__getitem__, order))
    return list(m._subs[0])


def submonoid_generators(m):
    """The generators submonoid_tuples adjoined for each submonoid, in its order: bit i is
    m.elements[-1 - i], and the highest bit joined the submonoid the lower bits generate."""
    submonoid_tuples(m)
    return m._subs[1]


def is_subgroup(m, elements):
    """True iff every element of the submonoid `elements` of m has a
    two-sided inverse among them.

    Once m's laws hold, a unit's inverse is one of its powers (a^i = a^j
    with i < j gives a^(j-i) = e), so the test is whether the elements are
    units of m, found once per monoid; otherwise every pair is tried.
    """
    if laws_hold(m):
        return m.units().issuperset(elements)
    return all(any(m.mul(a, b) == m.unit == m.mul(b, a) for b in elements)
               for a in elements)


def enumerate_submonoids(m):
    """All submonoids with inclusions, ordered by size then element list."""
    return [submonoid(m, elements) for elements in submonoid_tuples(m)]


def enumerate_subgroups(m):
    """Submonoids in which every element has a two-sided inverse."""
    return [submonoid(m, elements) for elements in submonoid_tuples(m)
            if is_subgroup(m, elements)]


def hopf_witness(m):
    """A non-invertible element, or None when all elements are invertible."""
    return next((a for a in m.elements if a not in m.units()), None)


def is_hopf(m):
    """True iff fusion is a bijection, i.e. iff m is a group: iff every row
    b -> ab of the table is one.  The verdict is kept on m."""
    if m._hopf is None:
        m._hopf = all(len(set(row)) == len(row) for row in m.table)
    return m._hopf


def antipode(m):
    """Inversion as an index tuple: the index of each element's inverse, in
    element order; defined exactly when m is a group."""
    if not is_hopf(m):
        raise NotHopfError(hopf_witness(m))
    return tuple(m.carrier.index(m.inverse(a)) for a in m.elements)
