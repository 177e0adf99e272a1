"""Monoid tables for the benchmark, built from formulas and permutation
generators, relabelled by a seeded permutation and written in the CLI schema.

Nothing here imports galmon: the tables are the benchmark's own, so the
reference checks in reference.py never lean on the code they check.
"""

import itertools
import json


class Table:
    """A finite monoid as plain data: labels, unit label and products."""

    def __init__(self, name, elements, unit, mul):
        self.name = name
        self.elements = tuple(elements)
        self.unit = unit
        self.mul = mul  # (a, b) -> ab, over labels

    def __len__(self):
        return len(self.elements)

    def doc(self):
        """The monoid file of the CLI schema."""
        return {"elements": sorted(self.elements), "unit": self.unit,
                "table": {a: {b: self.mul[(a, b)] for b in sorted(self.elements)}
                          for a in sorted(self.elements)}}

    def relabel(self, rng=None):
        """The same monoid with the labels x00, x01, ... dealt out by rng,
        or in the order the elements were built when rng is None.

        The set of label strings depends only on the order, so a seed moves
        which element carries which label and nothing else.
        """
        labels = ["x%02d" % k for k in range(len(self.elements))]
        if rng is not None:
            rng.shuffle(labels)
        new = dict(zip(self.elements, labels))
        mul = {(new[a], new[b]): new[c] for (a, b), c in self.mul.items()}
        return Table(self.name, labels, new[self.unit], mul)


def _from_formula(name, points, unit, op):
    elements = [str(p) for p in points]
    mul = {(str(a), str(b)): str(op(a, b)) for a in points for b in points}
    return Table(name, elements, str(unit), mul)


def cyclic(n):
    return _from_formula("Z%d" % n, range(n), 0, lambda a, b: (a + b) % n)


def klein_four():
    return _from_formula("V4", range(4), 0, lambda a, b: a ^ b)


def mult_mod(n):
    return _from_formula("mult%d" % n, range(n), 1, lambda a, b: a * b % n)


def idempotent_pair():
    return _from_formula("E2", (0, 1), 0, lambda a, b: a | b)


def left_zero_band(order):
    """A unit 0 adjoined to order-1 left zeros: ab = a off the unit."""
    return _from_formula("LZ%d" % order, range(order), 0,
                         lambda a, b: b if a == 0 else a)


def right_zero_band(order):
    """A unit 0 adjoined to order-1 right zeros: ab = b off the unit."""
    return _from_formula("RZ%d" % order, range(order), 0,
                         lambda a, b: a if b == 0 else b)


def quaternion():
    """Q8 as pairs (sign, unit) with unit in 1, i, j, k."""
    units = {("1", "1"): (1, "1"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
             ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
             ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
             ("i", "k"): (-1, "j")}
    for u in "ijk":
        units[("1", u)] = units[(u, "1")] = (1, u)
    points = [(s, u) for s in (1, -1) for u in "1ijk"]

    def op(a, b):
        s, u = units[(a[1], b[1])]
        return (a[0] * b[0] * s, u)

    def label(p):
        return ("p" if p[0] > 0 else "n") + p[1]

    mul = {(label(a), label(b)): label(op(a, b)) for a in points for b in points}
    return Table("Q8", [label(p) for p in points], "p1", mul)


def permutation_group(name, degree, generators):
    """The group the generators span, composing (pq)(i) = p(q(i))."""
    ident = tuple(range(degree))
    found = {ident}
    frontier = [ident]
    while frontier:
        grown = []
        for p in frontier:
            for g in generators:
                q = tuple(p[g[i]] for i in ident)
                if q not in found:
                    found.add(q)
                    grown.append(q)
        frontier = grown
    perms = sorted(found)
    label = {p: "".join("%x" % v for v in p) for p in perms}
    mul = {(label[p], label[q]): label[tuple(p[q[i]] for i in ident)]
           for p in perms for q in perms}
    return Table(name, [label[p] for p in perms], label[ident], mul)


def symmetric3():
    return permutation_group("S3", 3, [(1, 0, 2), (1, 2, 0)])


def symmetric4():
    return permutation_group("S4", 4, [(1, 0, 2, 3), (1, 2, 3, 0)])


def alternating4():
    return permutation_group("A4", 4, [(1, 2, 0, 3), (0, 2, 3, 1)])


def dihedral(k):
    """Dk, the symmetries of a k-gon, of order 2k."""
    rotation = tuple((i + 1) % k for i in range(k))
    reflection = tuple((-i) % k for i in range(k))
    return permutation_group("D%d" % k, k, [rotation, reflection])


def write(path, doc):
    with open(path, "w") as fd:
        json.dump(doc, fd, sort_keys=True)


def is_group(t):
    return all(any(t.mul[(a, b)] == t.unit == t.mul[(b, a)] for b in t.elements)
               for a in t.elements)


def check_laws(t):
    """Refuse a table that is not a monoid before galmon ever sees it."""
    for a in t.elements:
        if t.mul[(t.unit, a)] != a or t.mul[(a, t.unit)] != a:
            raise ValueError("%s: unit law fails at %s" % (t.name, a))
    for a, b, c in itertools.product(t.elements, repeat=3):
        if t.mul[(t.mul[(a, b)], c)] != t.mul[(a, t.mul[(b, c)])]:
            raise ValueError("%s: associativity fails at %s %s %s" % (t.name, a, b, c))
