"""Reference computations and output checks, independent of galmon.

Submonoids come from closure under multiplication, not from the subset
scan; the default site, invariants and stabilizers come from a pointwise
scan of the monoid table over the site's objects, named as galmon's
reports name them.  Each check raises Mismatch on the first disagreement.
"""

import itertools

from monoids import is_group

ARROW = "↦"


class Mismatch(Exception):
    """A galmon output disagrees with the reference or with a law."""


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _close(t, base, a):
    """The submonoid generated by a closed set and one more element."""
    elems = set(base)
    todo = [a]
    while todo:
        x = todo.pop()
        if x in elems:
            continue
        elems.add(x)
        for y in list(elems):
            todo.append(t.mul[(x, y)])
            todo.append(t.mul[(y, x)])
    return frozenset(elems)


class Reference:
    """Everything the checks compare against, computed once per input."""

    def __init__(self, t):
        self.t = t
        self.elements = tuple(sorted(t.elements))
        self.group = is_group(t)
        seen = {frozenset([t.unit])}
        todo = list(seen)
        while todo:
            S = todo.pop()
            for a in t.elements:
                if a not in S:
                    T = _close(t, S, a)
                    if T not in seen:
                        seen.add(T)
                        todo.append(T)
        self.submonoids = sorted((sorted(S) for S in seen), key=lambda s: (len(s), s))
        self.subgroups = [S for S in self.submonoids if all(
            any(t.mul[(a, b)] == t.unit == t.mul[(b, a)] for b in S) for a in S)]
        self.site = self._default_site()
        self.names = [name for name, _, _ in self.site]

    def _default_site(self):
        """(name, sorted carrier, action) for cosets+free or free+trivial."""
        t = self.t
        objects = []
        if self.group:
            for S in self.subgroups:
                cosets = {frozenset(t.mul[(a, s)] for s in S) for a in t.elements}

                def label(c):
                    return "{%s}" % ",".join(sorted(c))

                act = {(a, label(c)): label(frozenset(t.mul[(a, x)] for x in c))
                       for a in t.elements for c in cosets}
                objects.append(("G/{%s}" % ",".join(S),
                                sorted(label(c) for c in cosets), act))
        free = {(a, "(%s,*)" % b): "(%s,*)" % t.mul[(a, b)]
                for a in t.elements for b in t.elements}
        objects.append(("F(1)", sorted("(%s,*)" % b for b in t.elements), free))
        if not self.group:
            objects.append(("E(1)", ["*"], {(a, "*"): "*" for a in t.elements}))
        return objects

    def invariants(self, S):
        """Per object, the points every element of S fixes."""
        return {name: [x for x in carrier if all(act[(s, x)] == x for s in S)]
                for name, carrier, act in self.site}

    def stabilizer(self, V):
        """The elements fixing every point of V."""
        return [a for a in self.elements
                if all(act[(a, v)] == v for name, _, act in self.site
                       for v in V.get(name, ()))]

    def family_label(self, a):
        """The end element of the family (x -> a.x), as galmon spells it."""
        return "(%s)" % ",".join(
            "{%s}" % ",".join(x + ARROW + act[(a, x)] for x in carrier)
            for _, carrier, act in self.site)


def _below(V, W):
    return all(set(V[n]) <= set(W[n]) for n in V)


def check_subgroups(report, ref):
    _expect(report.get("command") == "subgroups", "not a subgroups report")
    got = report["submonoids"]
    _expect(len(got) == len(ref.submonoids), "%d submonoids, the closure finds %d"
            % (len(got), len(ref.submonoids)))
    _expect(got == ref.submonoids, "submonoids differ from the closure")
    _expect(report["subgroups"] == ref.subgroups, "subgroups differ from the closure")


def check_corr(report, ref):
    _expect(report.get("command") == "corr", "not a corr report")
    _expect(report["monoid"] == {"elements": list(ref.elements), "unit": ref.t.unit},
            "corr reports another monoid")
    _expect(report["site"] == ref.names, "corr over another site")
    rows = report["submonoids"]
    _expect([r["elements"] for r in rows] == ref.submonoids,
            "corr sweeps other submonoids than the closure finds")
    inv = {}
    for r in rows:
        S = r["elements"]
        V = ref.invariants(S)
        _expect(r["invariants"] == V, "wrong invariants of {%s}" % ",".join(S))
        T = ref.stabilizer(V)
        _expect(r["stabilizer_of_invariants"] == T,
                "wrong stabilizer of the invariants of {%s}" % ",".join(S))
        _expect(r["closed"] == (T == S), "wrong closed flag at {%s}" % ",".join(S))
        inv[tuple(S)] = V
    images = []
    for r in rows:
        if inv[tuple(r["elements"])] not in images:
            images.append(inv[tuple(r["elements"])])
    _expect([v["subsets"] for v in report["subfunctors"]] == images,
            "the invariant images differ")
    closed_vs = []
    for v in report["subfunctors"]:
        T = ref.stabilizer(v["subsets"])
        W = ref.invariants(T)
        _expect(v["stabilizer"] == T and v["invariants_of_stabilizer"] == W,
                "wrong stabilizer or invariants at an invariant image")
        _expect(v["closed"] == (W == v["subsets"]), "wrong closed flag at a subfunctor")
        if W == v["subsets"]:
            closed_vs.append(W)
    closed = [r["elements"] for r in rows if r["closed"]]
    if ref.group:
        _expect(len(closed) == len(rows), "a subgroup is not closed over cosets+free")
    _expect(report["closed_submonoids"] == closed, "wrong closed submonoids")
    _expect(report["closed_subfunctors"] == closed_vs, "wrong closed subfunctors")
    _expect(report["bijection"] == [{"submonoid": S, "subfunctor": inv[tuple(S)]}
                                    for S in closed], "wrong bijection")
    _expect(len(closed) == len(closed_vs), "closed objects are not in bijection")
    for S1, S2 in itertools.product(closed, repeat=2):
        _expect((set(S1) <= set(S2)) == _below(inv[tuple(S2)], inv[tuple(S1)]),
                "the bijection does not reverse inclusion")
    _expect(report["bijective"] is True and report["inclusion_reversing"] is True,
            "corr does not report an inclusion-reversing bijection")


def check_laws(report, ref, seed):
    _expect(report.get("command") == "laws", "not a laws report")
    _expect(report["site"] == ref.names and report["seed"] == seed,
            "laws over another site or seed")
    _expect(len(report["extra_subfunctors"]) == 3, "laws drew no three extras")
    for V in report["extra_subfunctors"]:
        _expect(all(set(V[name]) <= set(carrier) for name, carrier, _ in ref.site),
                "an extra subfunctor leaves the site")
    _expect(report["failures"] == [] and report["ok"] is True,
            "laws reports failures: %r" % (report["failures"][:1],))


def check_end(report, ref):
    _expect(report.get("command") == "end", "not an end report")
    _expect(report["site"] == ref.names, "end over another site")
    n = len(ref.elements)
    _expect(report["size"] == n and len(report["families"]) == n,
            "the end has %d families, the monoid %d elements" % (report["size"], n))
    rec = report["reconstruction"]
    _expect(rec["map"] == {a: ref.family_label(a) for a in ref.elements},
            "reconstruction does not send a to (x -> a.x)")
    _expect(sorted(rec["map"].values()) == sorted(report["families"]),
            "reconstruction misses a family")
    _expect(rec["injective"] is True and rec["isomorphism"] is True
            and rec["kernel_pairs"] == [], "reconstruction is not an isomorphism")
    _expect(report["unit"] == rec["map"][ref.t.unit], "the end's unit is not rho(unit)")


def check_stab(report, ref, V):
    _expect(report.get("command") == "stab", "not a stab report")
    _expect(report["site"] == ref.names and report["subfunctor"] == V,
            "stab of another subfunctor")
    T = ref.stabilizer(V)
    _expect(report["stabilizer"] == T, "stab differs from the pointwise stabilizer")
    _expect(report["stabilizer_via_end"] == T and report["agree"] is True,
            "the end route differs from the pointwise stabilizer")


def check_site(site, ref):
    """A galmon Site object against the reference default site."""
    _expect(list(site.names) == ref.names, "default_site has other objects")
    for act, (name, carrier, table) in zip(site.objects, ref.site):
        _expect(list(act.carrier.elements) == carrier, "wrong carrier of %s" % name)
        for a, x in table:
            _expect(act.apply(a, x) == table[(a, x)], "wrong action on %s" % name)
