"""Regenerate the JSON fixtures in this directory from the built-in samples."""

import itertools
import json
import os

from galmon import samples
from galmon.actions import default_site
from galmon.finset import FinSet
from galmon.galois import invariants
from galmon.monoid import Monoid, MonoidHom, submonoid

HERE = os.path.dirname(os.path.abspath(__file__))


def monoid_doc(m):
    return {"elements": list(m.elements), "unit": m.unit,
            "table": {a: {b: m.mul(a, b) for b in m.elements} for a in m.elements}}


def action_doc(M):
    return {"set": list(M.carrier.elements),
            "act": {a: {x: M.apply(a, x) for x in M.carrier}
                    for a in M.monoid.elements}}


def hom_doc(h):
    return {"src": monoid_doc(h.src), "map": {b: h(b) for b in h.src.elements}}


def relabelled(m, names):
    """m with its elements renamed, in element order, to names."""
    to = dict(zip(m.elements, names))
    return Monoid(FinSet(names), to[m.unit], {(to[a], to[b]): to[m.mul(a, b)]
                                              for a in m.elements for b in m.elements})


def symmetric4():
    """S4 on 0..3, each permutation named t<images>, composing right to left."""
    perms = list(itertools.permutations(range(4)))
    name = {p: "t" + "".join(map(str, p)) for p in perms}
    return Monoid(FinSet(name.values()), name[perms[0]], {
        (name[p], name[q]): name[tuple(p[i] for i in q)] for p in perms for q in perms})


def dump(name, doc):
    with open(os.path.join(HERE, name), "w") as fd:
        json.dump(doc, fd, sort_keys=True, indent=2)
        fd.write("\n")


def main():
    s3 = samples.symmetric3()
    s4 = symmetric4()
    z2 = samples.cyclic(2)
    for name, m in [("trivial", samples.cyclic(1)), ("z2", z2),
                    ("z3", samples.cyclic(3)), ("z4", samples.cyclic(4)),
                    ("e2", samples.idempotent_pair()), ("s3", s3),
                    ("lz6", samples.left_zero_with_unit(6)),
                    ("lz12", samples.left_zero_with_unit(12)), ("s4", s4)]:
        dump(name + ".json", monoid_doc(m))
    # symbols that JSON escapes: non-ASCII, a quote and a backslash, a space
    dump("z3_symbols.json", monoid_doc(relabelled(samples.cyclic(3), ["é", 'a"\\b', "∞ x"])))

    dump("s3_natural.json", action_doc(samples.natural_action3()))
    dump("z2_swap.json", action_doc(samples.swap_action()))

    a3, incl = submonoid(s3, ("e", "(123)", "(132)"))
    dump("a3_in_s3.json", hom_doc(incl))
    dump("z2_in_s3.json", hom_doc(MonoidHom(z2, s3, {"e": "e", "g": "(12)"})))
    dump("a3_invariants.json", {"subsets": invariants(incl, default_site(s3)).as_dict()})
    # every point: stab restricts the end to its own families
    _, unit = submonoid(s3, ("e",))
    dump("s3_all_points.json", {"subsets": invariants(unit, default_site(s3)).as_dict()})
    # S4's default site has 31 objects, whose end families have long labels
    _, swap01 = submonoid(s4, ("t0123", "t1023"))
    dump("s4_swap_invariants.json", {"subsets": invariants(swap01, default_site(s4)).as_dict()})
    # a point of the natural action: a subfunctor of the custom site it spans
    dump("s3_natural_point.json", {"subsets": {"s3_natural": ["1"]}})


if __name__ == "__main__":
    main()
