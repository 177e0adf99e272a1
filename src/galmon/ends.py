"""Ends of hom diagrams over a site, as concrete finite carriers.

A diagram is a functor from a site into finite sets: its `site`, `obs` (one
carrier per site object) and `mor(i, j, f)`, the image of the morphism with
carrier-index tuple f as an index tuple over the carriers.  There are two:
U, the underlying carriers (`ForgetfulDiagram`), and a subfunctor V ⊆ U
(`galois.Subfunctor`), whose morphisms are U's restricted to its subsets.
The end of [V, W] collects one map V(M) -> W(M) per site object, subject to
the wedge condition against every site morphism.  Families are read off a
presentation of V by generating points and relations, as equivariant maps
are (`actions.read_off`): the image of a generating point fixes the images
of every point reached from it, so the work tracks the families found rather
than the |W|^|V| candidate maps of each object, and the sizing guard bounds
the tables written and the values tried.  An element of an end is its family
itself, the tuple over site objects of the target indices each component
sends V's points to; only the `end` report names families, through
`EndObject.label`.

When V = W the end is a monoid under componentwise composition, and a
monoid map into End[U] (U the underlying-carrier diagram) is exactly an
action of its source on every site object at once: the Site proves that
once for its own monoid and the end layer relies on it, while another
monoid is checked along its generators.  A map into or between ends is its
index tuple into the target end's carrier, in source order; no end's table
is composed.  With a free object in the site, End[U]'s families are the
action rows, act.table[k] on every object for each element index k (Yoneda;
see `end_of_forgetful`).  A stabilizer's trivial path A -> 1 -> End[U] is
the augmentation followed by End[U]'s unit.
"""

import functools
import itertools
import operator

from . import finset
from .finset import ARROW, FinSet
from .monoid import Monoid, acts_along, generators
from .actions import read_off


class EndError(Exception):
    """Structural error in a diagram, functor, or end computation."""


class ForgetfulDiagram:
    """Underlying carriers; morphisms pass through unchanged."""

    def __init__(self, site):
        self.site = site
        self.obs = [act.carrier for act in site.objects]

    def mor(self, i, j, f):
        return f


class EndObject:
    """The end of [V, W]: its wedge families, one map per site object.

    Each family is its own element of `carrier`: per site object, the
    tuple of W-indices of the images of V's points, in V's order."""

    def __init__(self, site, V, W, families):
        self.site, self.V, self.W = site, V, W
        self.families = tuple(families)
        self.carrier = FinSet(self.families, check=False)

    def __len__(self):
        return len(self.families)

    def __repr__(self):
        return "EndObject(%d families over %r)" % (len(self.families), self.site)

    @functools.cached_property
    def _prefixes(self):
        """Per site object, "x↦" for each of V's points, and W's elements."""
        return [(tuple(x + ARROW for x in V), W.elements) for V, W in zip(self.V.obs, self.W.obs)]

    def label(self, fam):
        """The family as a report names it: "({x↦y,...},...)", one map per site object."""
        return "(%s)" % ",".join(["{%s}" % ",".join(map(operator.add, xs, map(ys.__getitem__, t)))
                                  for (xs, ys), t in zip(self._prefixes, fam)])

    def unit(self):
        """The identity family, defined when V and W coincide."""
        if self.V.obs != self.W.obs:
            raise EndError("only an end of a self-hom diagram is a monoid")
        unit_fam = tuple(tuple(range(len(ob))) for ob in self.V.obs)
        if unit_fam not in self.carrier:
            raise EndError("identity family fails the wedge condition")
        return unit_fam


def internal_nat(V, W):
    """Compute the end of [V, W] over the diagrams' common site.

    A wedge family sends each point (i, p), p in V(i), into W(i), and
    (j, V f(p)) to W f of that image for every generating morphism
    f: i -> j (naturality is closed under composition).  It is read off a
    presentation of V, as equivariant maps are (`actions.read_off`): each
    point not reached yet, in flat order, is a generating point x, a walk
    along the generating morphisms gives each point it reaches the table
    W(x) -> W(i) of its path, and every later arrival at a point is a
    relation between two tables.  The walk's table cells and the
    read-off's values and images make one count against the limit.
    """
    site = V.site
    if site != W.site:
        raise EndError("both diagrams must live over the same site")
    k = site.nobj
    offset = [0, *itertools.accumulate(map(len, V.obs))]
    n = offset[-1]
    obj = [i for i in range(k) for _ in V.obs[i]]
    edges = [[] for _ in range(k)]  # out of i: (offset of j, V f, W f); no walk visits empty V(i)
    for i, j in itertools.product((i for i in range(k) if V.obs[i]), range(k)):
        for f in site.generating_tuples(i, j):
            edges[i].append((offset[j], V.mor(i, j, f), W.mor(i, j, f)))
    number = {}  # each distinct table, numbered in order of appearance
    owner, table, at = [None] * n, [None] * n, [None] * n
    blocks, relations, sizes, made, limit = [], [], [], 0, finset.MAX_ENUMERATION
    for x in range(n):
        if owner[x] is not None:
            continue
        b, block, rel = len(blocks), [x], {}
        table[x] = tuple(range(len(W.obs[obj[x]])))
        owner[x], at[x] = b, number.setdefault(table[x], len(number))
        for p in block:  # grows as the walk reaches new points
            t, vp = table[p], p - offset[obj[p]]
            for o, Vf, Wf in edges[obj[p]]:
                q, c = o + Vf[vp], tuple(map(Wf.__getitem__, t))
                made += len(c)
                if made > limit:
                    raise finset.refusal("ends", "%d candidate assignments" % made)
                a = number.setdefault(c, len(number))
                if owner[q] is None:
                    owner[q], table[q], at[q] = b, c, a
                    block.append(q)
                elif a != at[q] or owner[q] != b:
                    rel[(a, owner[q], at[q])] = None
        blocks.append(sorted(block))
        relations.append(tuple(rel))
        sizes.append(len(table[x]))
    listed = [p for block in blocks for p in block]
    pos = None if listed == list(range(n)) else sorted(range(n), key=listed.__getitem__)
    reps = [tuple(map(at.__getitem__, block)) for block in blocks]
    families = [tuple(flat[offset[i]:offset[i + 1]] for i in range(k))
                for flat in read_off(reps, relations, pos, list(number), sizes, "ends", made)]
    return EndObject(site, V, W, families)


def _is_free(X):
    """|A| points, one column holding them all: X is free on that point."""
    n = len(X.monoid)
    return len(X.carrier) == n and any(len(set(col)) == n for col in zip(*X.table))


def end_of_forgetful(site):
    """The end of the underlying-carrier diagram.

    A free object F = A.x0 has a point x0 with a -> a.x0 a bijection from
    the monoid onto F.  With one in the site, every x in an object X is
    f(x0) for the morphism f: F -> X, a.x0 -> a.x, so a wedge family is
    fixed by its value c.x0 at x0 and is the action of c everywhere; every
    c gives one.  The families are then the action tables of the elements,
    in lexicographic order as `internal_nat` lists them.  Sites without a
    free object go through `internal_nat`.
    """
    U = ForgetfulDiagram(site)
    if not any(map(_is_free, site.objects)):
        return internal_nat(U, U)
    return EndObject(site, U, U, sorted(tuple(act.table[k] for act in site.objects)
                                        for k in range(len(site.monoid))))


def end_monoid(end):
    """The end of a self-hom diagram as a monoid under componentwise
    composition; its |E|^2 table cells count against the limit before any
    is composed."""
    unit = end.unit()
    cells = len(end) ** 2
    if cells > finset.MAX_ENUMERATION:
        raise finset.refusal("ends.end_monoid", "%d table cells" % cells)
    fams, table = end.carrier, []
    for f in fams:
        comps = [tuple(tuple(ti[q] for q in tj) for ti, tj in zip(f, g)) for g in fams]
        if not all(map(fams.__contains__, comps)):
            raise EndError("families are not closed under composition")
        table.append(tuple(map(fams.index, comps)))
    return Monoid._trusted(fams, unit, tuple(table))


def reconstruction_hom(m, end):
    """The map sending a in m to the family (x -> a.x) over end.site: for
    each element, in element order, the index of its family in end.carrier.

    Families compose componentwise, so it is a monoid map exactly when
    every site object obeys the action law along generators of m: the Site
    proved that of its own monoid, and any other m is checked (Light's test)."""
    tables, at = [act.table for act in end.site.objects], end.carrier._lookup.get
    rho = tuple(at(tuple(t[k] for t in tables)) for k in range(len(m)))
    if None in rho:
        a = m.elements[rho.index(None)]
        raise EndError("the action family of %r fails the wedge condition" % a)
    if m != end.site.monoid and not all(acts_along(m, t, generators(m)) for t in tables):
        raise EndError("the action families are not a monoid map into the end")
    return rho


def trivial_path(m, end):
    """A -> 1 -> End[U], the augmentation followed by the end's unit: the
    unit family's index in end.carrier, once per element of m."""
    return (end.carrier.index(end.unit()),) * len(m)


def family_restriction(end, sub):
    """Precompose a self-hom end with a subfunctor of its source.

    Returns the map End[U] -> End[sub, U], as the target index of each
    family in end.carrier order, together with the end it lands in; each
    component is the original one restricted to the subset, so the
    projection squares commute by the very same table.  This is the
    checked form of the restriction `galois.stabilizer_via_end` makes in
    place, with no end of [sub, U] listed.
    """
    if sub.site != end.site:
        raise EndError("subfunctor must live over the end's site")
    full = end.V is end.W and sub.obs == end.W.obs  # sub keeps every point: the end's families
    target = EndObject(end.site, sub, end.W, end.families) if full else internal_nat(sub, end.W)
    cut = tuple(map(target.carrier._lookup.get, (
        tuple(tuple(map(comp.__getitem__, emb)) for comp, emb in zip(fam, sub._embed))
        for fam in end.carrier)))
    if None in cut:
        raise EndError("a restricted family fails the wedge condition")
    return cut, target
