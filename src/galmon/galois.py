"""Invariants of monoid maps, stabilizers of subfunctors, and the induced
Galois connection between submonoids and natural families of subsets.

A subfunctor is one int over the site's points, and so is each element's
fixed-point mask, read off the actions' tables.  Invariants are the AND of
the masks of a generating set of the source; a stabilizer is the elements
whose masks cover V, or comes through the end of the underlying-carrier
diagram.  One closure gives the subfunctor that points generate: it
decides naturality (V is natural when it generates only itself) and grows
random subfunctors, and the ordered scan only names the escape of a V that
is not.  On builder objects the closure is read off base points as masks,
with no hom set.  The connection laws and the closed object correspondence
are then checked rather than assumed.  Nothing is cached across calls, and
the sweeps build no monoid per submonoid: they AND the masks of the
generators the listing adjoined.
"""

import functools
import itertools
import operator

from .finset import FinSet, equalizer
from .monoid import generators, laws_hold, submonoid, submonoid_generators, submonoid_tuples
from . import ends

_BITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


class GaloisError(Exception):
    """Structural error in a subfunctor or correspondence input."""


def _naturality_violation(site, comps):
    """First (morphism, element) pushing a chosen subset outside another,
    in site order, then carrier order, or None.  comps holds element-index
    sets per site object.  Naturality is closed under composition, so the
    generating morphisms suffice; no hom set out of an empty subset or into
    a full one is derived.  Subfunctor asks it only to name the escape once
    _closure has found V not natural."""
    targets = [j for j, act in enumerate(site.objects) if len(comps[j]) < len(act.carrier)]
    for i, j in itertools.product((i for i in range(site.nobj) if comps[i]), targets):
        for f in site.generating_tuples(i, j):
            if not comps[j].issuperset(map(f.__getitem__, comps[i])):
                p = min(p for p in comps[i] if f[p] not in comps[j])
                return (i, j, site.objects[i].carrier.elements[p])
    return None


def _mask(flags):
    """The int over a site's points, object by object, whose k-th bit is the k-th 0/1 flag."""
    return int(bytes(flags)[::-1].translate(_BITS) or b"0", 2)


def _split(site, mask):
    """mask's points object by object, as 0/1 bytes over each carrier."""
    flags = format(mask, "b")[::-1].encode().translate(_FLAGS)
    sizes = [len(act.carrier) for act in site.objects]
    return [flags[o:o + n].ljust(n, b"\0")
            for o, n in zip(itertools.accumulate(sizes, initial=0), sizes)]


def _fixed_masks(site, ks):
    """For each element index k of ks, in order, the mask of the points the
    k-th element fixes, read off the action rows."""
    points = list(itertools.chain.from_iterable(range(len(act.carrier)) for act in site.objects))
    return [_mask(map(operator.eq, itertools.chain.from_iterable(
        [act.table[k] for act in site.objects]), points)) for k in ks]


def _closure(site, comps):
    """The mask of the subfunctor that the points comps (element-index sets
    per object) generate.  Read off base points when the monoid's laws hold,
    every object with a chosen point is a builder object, and each with a
    point still to be reached has one generating point x0: it is induced
    from B = Stab(x0) (Hom_A(A ⊗_B 1, Y) = Inv_B(Y)), so a morphism out of
    it is a point y of Inv_B(U), the AND of the fixed-point masks of B's
    generators, sending r_p.x0 to r_p.y, and p = r_p.x0 generates
    r_p.Inv_B(U).  Else grown points are walked along the generating
    morphisms into objects not full, one issuperset per morphism."""
    m, sizes = site.monoid, [len(act.carrier) for act in site.objects]
    offsets = list(itertools.accumulate(sizes, initial=0))
    read = laws_hold(m) and all(act._built for act, s in zip(site.objects, comps) if s)
    fixed, out = {}, 0
    for i, act in enumerate(site.objects if read else ()):
        inv = None
        for p in sorted(comps[i]):
            if out >> offsets[i] + p & 1:  # generated already, with all it generates
                continue
            if inv is None:  # Inv_B(U), per object
                points, reps, _, relations = act._presentation()
                if len(points) != 1:
                    read = False
                    break
                # x0's relations a.x0 = b.x0 give B's generators b^-1 a (Schreier; F(1) has none)
                B = sorted({m.table[b].index(a) for a, _, b in relations[0]}
                           | {m.carrier.index(m.unit)})
                need = [a for a in B if a not in fixed]
                fixed.update(zip(need, _fixed_masks(site, need)))
                inv = _split(site, functools.reduce(operator.and_, map(fixed.__getitem__, B)))
            rows = [X.table[reps[0][p]] for X in site.objects]  # r_p.Inv_B(U), per object
            out |= _mask(itertools.chain.from_iterable(
                map(set(itertools.compress(row, f)).__contains__, range(len(f)))
                for row, f in zip(rows, inv)))
        if not read:
            break
    if read:
        return out
    comps = [set(s) for s in comps]
    fresh = {i: set(s) for i, s in enumerate(comps) if s}  # points not yet pushed out
    while fresh:
        i, new = fresh.popitem()
        for j in (j for j in range(site.nobj) if len(comps[j]) < sizes[j]):
            for f in site.generating_tuples(i, j):
                if not comps[j].issuperset(map(f.__getitem__, new)):
                    grown = {f[p] for p in new} - comps[j]
                    comps[j] |= grown
                    fresh.setdefault(j, set()).update(grown)
    return _mask(p in s for n, s in zip(sizes, comps) for p in range(n))


class Subfunctor:
    """Per-object subsets of a site's carriers, closed under all morphisms,
    held as `mask` (see _mask): `<=` is mask inclusion, and == and hash are
    the mask's.  The constructor accepts V when it generates only itself
    (see _closure).  It is the diagram V ⊆ U that ends restrict to: `obs` and
    `mor` are U's carriers and morphisms cut down to the mask's points."""

    def __init__(self, site, subsets):
        unknown = sorted(set(subsets) - set(site.names))
        if unknown:
            raise GaloisError("subfunctor names unknown object %r" % unknown[0])
        idxsets = []
        for name, act in zip(site.names, site.objects):
            chosen = set(subsets.get(name, ()))
            outside = sorted((x for x in chosen if x not in act.carrier), key=str)
            if outside:  # sorted by str, since outside input need not be strings
                raise GaloisError("element %r is not in site object %r" % (outside[0], name))
            idxsets.append(frozenset(map(act.carrier.index, chosen)))
        mask = _mask(p in s for act, s in zip(site.objects, idxsets)
                     for p in range(len(act.carrier)))
        if _closure(site, idxsets) != mask:  # not natural: the ordered scan names an escape
            i, j, x = _naturality_violation(site, idxsets)
            raise GaloisError("not natural: a morphism %r -> %r moves %r outside the subset"
                              % (site.names[i], site.names[j], x))
        self.site, self.mask = site, mask

    @classmethod
    def _trusted(cls, site, mask):
        """The points of mask, already closed under the site morphisms."""
        V = cls.__new__(cls)
        V.site, V.mask = site, mask
        return V

    @classmethod
    def full(cls, site):
        return cls._trusted(site, _mask([1] * sum(len(act.carrier) for act in site.objects)))

    @classmethod
    def empty(cls, site):
        return cls._trusted(site, 0)

    @functools.cached_property
    def _embed(self):
        """Per object, the carrier indices of the chosen points, in order."""
        return tuple(tuple(itertools.compress(range(len(f)), f))
                     for f in _split(self.site, self.mask))

    @functools.cached_property
    def _back(self):
        """Per object, each chosen carrier index's place among the chosen points."""
        return [{x: p for p, x in enumerate(emb)} for emb in self._embed]

    @functools.cached_property
    def obs(self):
        return [FinSet(chosen, check=False) for chosen in self.components.values()]

    def mor(self, i, j, f):
        """V(f) as indices into the chosen points; EndError if f moves one out of V."""
        back = self._back[j]
        out = tuple(back.get(f[x]) for x in self._embed[i])
        if None in out:
            raise ends.EndError("subsets are not closed under the site morphisms")
        return out

    @property
    def components(self):
        """Each object's chosen elements, in carrier order."""
        return {name: tuple(map(act.carrier.elements.__getitem__, emb))
                for name, act, emb in zip(self.site.names, self.site.objects, self._embed)}

    def component(self, name):
        return self.components[name]

    def as_dict(self):
        return {name: list(v) for name, v in self.components.items()}

    def __le__(self, other):
        if self.site != other.site:
            raise GaloisError("subfunctors over different sites are incomparable")
        return not self.mask & ~other.mask

    def __eq__(self, other):
        return isinstance(other, Subfunctor) and (self.mask, self.site) == (other.mask, other.site)

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        return "Subfunctor(%s)" % ", ".join(
            "%s:{%s}" % (n, ",".join(v)) for n, v in self.components.items())


def fixes(h, V):
    """Whether every element coming from h acts as the identity on V: V lies in its invariants."""
    return V <= invariants(h, V.site)


def invariants(h, site):
    """The subfunctor of elements fixed by everything in the image of h: the AND of the
    fixed-point masks of h(e) and h(g) for the generators g of h's source.  h and the
    site's actions obey their laws, so what h(G) fixes, all of h fixes."""
    if h.dst != site.monoid:
        raise GaloisError("the hom must land in the site's monoid")
    src = h.src
    masks = _fixed_masks(site, {h.images[g] for g in (src.carrier.index(src.unit),
                                                       *generators(src))})
    # natural by construction: a site morphism commutes with every h(b)
    return Subfunctor._trusted(site, functools.reduce(operator.and_, masks))


def stabilizer(V):
    """The largest submonoid acting as the identity on V, with inclusion:
    the elements whose fixed-point masks cover V's."""
    m = V.site.monoid
    masks = _fixed_masks(V.site, range(len(m)))
    return submonoid(m, [a for a, f in zip(m.elements, masks) if not V.mask & ~f])


def stabilizer_via_end(V):
    """The stabilizer again, through the end: equalize the reconstruction
    map against the trivial path after restricting their families to V,
    component by component.  A restricted wedge is a wedge, so the end of
    [V, U] is not listed; `ends.family_restriction` is the checked map."""
    site, m = V.site, V.site.monoid
    end = ends.end_of_forgetful(site)
    rho = ends.reconstruction_hom(m, end)
    path = ends.trivial_path(m, end)
    cut = end.carrier.elements
    if V != Subfunctor.full(site):  # else each family is its own restriction
        cut = {k: tuple(tuple(map(comp.__getitem__, emb)) for comp, emb in zip(cut[k], V._embed))
               for k in {*rho, *path}}
    kept = equalizer([cut[k] for k in rho], [cut[k] for k in path])
    return submonoid(m, map(m.elements.__getitem__, kept))[0]


def _sweep(m, site):
    """m's submonoids, their invariants and each element's fixed points, as masks: Inv(S)
    is Inv(S') & fixed(g), S' (listed before S) generated by all but S's last generator g."""
    masks = _fixed_masks(site, range(len(m)))
    by_bit, inv = masks[::-1], {0: masks[m.carrier.index(m.unit)]}
    for g in submonoid_generators(m)[1:]:  # after the unit's, which has none
        inv[g] = inv[g ^ 1 << g.bit_length() - 1] & by_bit[g.bit_length() - 1]
    return submonoid_tuples(m), [inv[g] for g in submonoid_generators(m)], masks


def galois_correspondence(m, site):
    """Sweep all submonoids and their invariant masks, flag the closed objects on both sides,
    and report the induced bijection; a distinct mask gets its stabilizer and dict once."""
    subs, inv, masks = _sweep(m, site)
    stab, label, pairing, rows = {}, {}, {}, []  # stab and label in order of first appearance
    for S, V in zip(subs, inv):
        if V not in stab:
            stab[V] = tuple(a for a, f in zip(m.elements, masks) if not V & ~f)
            label[V] = Subfunctor._trusted(site, V).as_dict()
        T = stab[V]
        if T == S:
            pairing[S] = V
        rows.append({"elements": list(S), "invariants": label[V],
                     "stabilizer_of_invariants": list(T), "closed": T == S})
    vrows = [{"subsets": label[V], "stabilizer": list(T),  # a stabilizer is closed
              "invariants_of_stabilizer": label[pairing[T]], "closed": pairing[T] == V}
             for V, T in stab.items()]
    closed_vs = [V for V, r in zip(stab, vrows) if r["closed"]]
    targets = set(pairing.values())
    bijective = len(targets) == len(pairing) and targets == set(closed_vs)
    index = m.carrier.index
    pairs = [(sum(1 << index(a) for a in S), V) for S, V in pairing.items()]
    reversing = all((not s1 & ~s2) == (not v2 & ~v1)
                    for (s1, v1), (s2, v2) in itertools.product(pairs, repeat=2))
    return {
        "schema": "galmon/1",
        "kind": "correspondence",
        "monoid": {"elements": list(m.elements), "unit": m.unit},
        "site": list(site.names),
        "submonoids": rows,
        "subfunctors": vrows,
        "closed_submonoids": [list(s) for s in pairing],
        "closed_subfunctors": [label[V] for V in closed_vs],
        "bijection": [{"submonoid": list(s), "subfunctor": label[V]} for s, V in pairing.items()],
        "bijective": bijective,
        "inclusion_reversing": bool(bijective and reversing),
    }


def connection_law_failures(m, site, extra_subfunctors=()):
    """Violations of the five connection laws over all submonoids, the full and empty
    subfunctors, every invariant image, and any extras, all compared as masks."""
    if any(V.site != site for V in extra_subfunctors):
        raise GaloisError("subfunctors over different sites are incomparable")
    failures = []
    subs, inv, masks = _sweep(m, site)
    index = m.carrier.index
    swept = [(S, sum(1 << index(a) for a in S), V) for S, V in zip(subs, inv)]
    inv_of = {s: V for _, s, V in swept}  # stabilizers are submonoids too
    tested = list(dict.fromkeys([masks[index(m.unit)], 0, *inv,
                                 *(V.mask for V in extra_subfunctors)]))
    stab = {V: sum(1 << k for k, f in enumerate(masks) if not V & ~f) for V in tested}
    named = functools.partial(Subfunctor._trusted, site)
    for S, s, V in swept:
        if s & ~stab[V]:
            failures.append("submonoid {%s} escapes the stabilizer of its invariants"
                            % ",".join(S))
        if inv_of[stab[V]] != V:
            failures.append("invariants not idempotent at {%s}" % ",".join(S))
    for V in tested:
        W = inv_of[stab[V]]
        if V & ~W:
            failures.append("%r escapes the invariants of its stabilizer" % named(V))
        if stab[W] != stab[V]:
            failures.append("stabilizer not idempotent at %r" % named(V))
    for (S1, s1, V1), (S2, s2, V2) in itertools.product(swept, repeat=2):
        if not s1 & ~s2 and V2 & ~V1:
            failures.append("invariants not order reversing on {%s} <= {%s}"
                            % (",".join(S1), ",".join(S2)))
    for V1, V2 in itertools.product(tested, repeat=2):
        if not V1 & ~V2 and stab[V2] & ~stab[V1]:
            failures.append("stabilizer not order reversing on %r <= %r" % (named(V1), named(V2)))
    return failures


def connection_laws(m, site, extra_subfunctors=()):
    return not connection_law_failures(m, site, extra_subfunctors)


def random_subfunctor(site, rng):
    """A natural subfunctor grown from random seeds: the one they generate (see _closure)."""
    seeds = [{p for p in range(len(act.carrier)) if rng.random() < 0.4} for act in site.objects]
    return Subfunctor._trusted(site, _closure(site, seeds))
