"""Finite sets and total maps: the ambient cartesian closed category.

Elements are plain strings.  Carriers built by product() remember how their
pairs were assembled.  The internal hom [X, Z] is a FunctionSet that
encodes and decodes its own function elements, so currying never parses
labels, and lists its |Z|^|X| elements only when iterated; a set of some
maps is a plain FinSet of their `map_label`s.  A FinMap is a name table,
kept for `curry`; a map elsewhere in the package is its index tuple, the
position of each image in the codomain, in domain order, and `equalizer`
takes two of those.  Every constructor sorts elements into a single
canonical order, every operation here is pure, and nothing is cached
between calls.
"""

import itertools
import sys

ARROW = "↦"  # separates argument from image in function-element labels

# The one work limit: every sizing guard of the package reads it from here
# at call time, and its refusal comes from `refusal`.
MAX_ENUMERATION = 10_000_000

# Ceiling on the submonoids listed, which are all kept in memory.
MAX_MATERIALIZED = 100_000


class FinSetError(Exception):
    """Structural error in a finite-set construction."""


class SizingError(Exception):
    """An enumeration would exceed the configured ceiling."""


def refusal(layer, counted, limit=None):
    """The SizingError of a guard in `layer` whose count, `counted` (the
    count with its unit), passed `limit` (MAX_ENUMERATION when None)."""
    return SizingError("%s: %s exceed the limit of %d"
                       % (layer, counted, MAX_ENUMERATION if limit is None else limit))


_OPENERS = {"(": ")", "{": "}"}
_CLOSERS = {")": "(", "}": "{"}


def check_symbol(sym):
    """Reject symbols that would make pair or function labels ambiguous."""
    if not isinstance(sym, str) or sym == "":
        raise FinSetError("element symbol must be a nonempty string: %r" % (sym,))
    stack = []
    for ch in sym:
        if ch in _OPENERS:
            stack.append(ch)
        elif ch in _CLOSERS:
            if not stack or stack[-1] != _CLOSERS[ch]:
                raise FinSetError("unbalanced brackets in symbol %r" % sym)
            stack.pop()
        elif not stack and (ch == "," or ch == ARROW):
            raise FinSetError("symbol %r contains a top-level %r" % (sym, ch))
    if stack:
        raise FinSetError("unbalanced brackets in symbol %r" % sym)


def pair_label(x, y):
    return "(%s,%s)" % (x, y)


def map_label(xs, ys):
    """Canonical label of the function sending xs[i] to ys[i]."""
    return "{%s}" % ",".join(x + ARROW + y for x, y in zip(xs, ys))


class FinSet:
    """An ordered finite set of distinct symbols."""

    def __init__(self, elements=(), check=True):
        elems = tuple(sorted(elements))
        if len(set(elems)) != len(elems):
            dup = sorted(e for e in set(elems) if list(elems).count(e) > 1)
            raise FinSetError("duplicate element symbol %r" % dup[0])
        if check:
            for e in elems:
                check_symbol(e)
        self.elements = elems
        self._lookup = {x: i for i, x in enumerate(elems)}
        # structure metadata, set by product(); never compared
        self._pairs = None     # elem -> (left, right)
        self._factors = None   # (left FinSet, right FinSet)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self._lookup

    def index(self, x):
        return self._lookup[x]

    def __eq__(self, other):
        return isinstance(other, FinSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        body = ",".join(map(str, self.elements[:6]))
        if len(self.elements) > 6:
            body += ",...[%d]" % len(self.elements)
        return "FinSet{%s}" % body

    @property
    def is_product(self):
        return self._pairs is not None

    def map_images(self, elem):
        raise FinSetError("%r does not carry function elements" % self)

    map_element = map_images


class FunctionSet(FinSet):
    """All function elements X -> Z, the internal hom [X, Z].

    Elements are labelled with map_label and decoded from what this set has
    encoded.  It answers len() from |Z|^|X| and lists its elements only
    when iterated or asked for one it has not encoded.
    """

    def __init__(self, base, target):
        self.base, self.target = base, target
        self._images, self._codes = {}, {}  # elem <-> images over base.elements
        self._pairs = self._factors = self._sorted = None
        self._size = len(target) ** len(base)

    def _encode(self, images):
        elem = map_label(self.base.elements, images)
        self._images[elem] = images
        self._codes[images] = elem
        return elem

    @property
    def elements(self):
        if self._sorted is None:
            if self._size > MAX_ENUMERATION:
                raise self._refusal()
            for t in itertools.product(self.target.elements, repeat=len(self.base)):
                self._encode(t)
            self._sorted = tuple(sorted(self._images))
            self._lookup = {x: i for i, x in enumerate(self._sorted)}
        return self._sorted

    def _refusal(self):
        return refusal("finset.exponential",
                       "%d^%d elements" % (len(self.target), len(self.base)))

    def __len__(self):
        if self._size > sys.maxsize:  # len() must fit in a machine word
            raise self._refusal()
        return self._size

    def __contains__(self, x):
        if x not in self._images and self._sorted is None:
            self.elements  # a label not encoded yet: list [X, Z]
        return x in self._images

    def index(self, x):
        self.elements  # positions are taken in the sorted listing
        return self._lookup[x]

    def __eq__(self, other):
        # a set of two or more maps determines its X and Z
        if isinstance(other, FunctionSet) and self._size > 1:
            return self.base == other.base and self.target == other.target
        return FinSet.__eq__(self, other)

    __hash__ = FinSet.__hash__

    def map_images(self, elem):
        """Images of a function element, in base order."""
        if elem not in self:
            raise FinSetError("no function element %r" % (elem,))
        return self._images[elem]

    def map_element(self, images):
        """Encode a tuple of images, in base order, as a function element."""
        images = tuple(images)
        if images in self._codes:
            return self._codes[images]
        if len(images) != len(self.base) or any(z not in self.target for z in images):
            raise FinSetError("no function element with images %r" % (images,))
        return self._encode(images)


def check_total(dom, cod, assignment):
    """Raise FinSetError at the first element of dom that the assignment
    leaves undefined, else the first it sends outside cod, else a key
    outside dom."""
    missing = [x for x in dom if x not in assignment]
    if missing:
        raise FinSetError("map undefined at %r" % missing[0])
    for x in dom:
        if assignment[x] not in cod:
            raise FinSetError("image %r of %r lies outside the codomain" % (assignment[x], x))
    if len(assignment) != len(dom):
        extra = sorted(set(assignment) - set(dom))
        raise FinSetError("assignment mentions %r outside the domain" % extra[0])


class FinMap:
    """A total map between finite sets, stored as an assignment table."""

    def __init__(self, dom, cod, assignment):
        check_total(dom, cod, assignment)
        self.dom, self.cod, self.assignment = dom, cod, {x: assignment[x] for x in dom}

    def __call__(self, x):
        return self.assignment[x]

    def __eq__(self, other):
        return (isinstance(other, FinMap) and self.dom == other.dom
                and self.cod == other.cod and self.assignment == other.assignment)


_SINGLETON = FinSet(("*",))


def singleton():
    """The terminal object: one element '*'."""
    return _SINGLETON


def product(X, Y):
    """Cartesian product with decodable pair elements."""
    if len(X) * len(Y) > MAX_ENUMERATION:
        raise refusal("finset.product", "%d x %d elements" % (len(X), len(Y)))
    pairs = {}
    for x in X:
        for y in Y:
            pairs[pair_label(x, y)] = (x, y)
    P = FinSet(pairs, check=False)
    P._pairs = pairs
    P._factors = (X, Y)
    return P


def exponential(X, Z):
    """Internal hom [X, Z]: all total maps as function elements."""
    return FunctionSet(X, Z)


def curry(f):
    """Transpose f: Y x X -> Z into Y -> [X, Z]."""
    P = f.dom
    if not P.is_product:
        raise FinSetError("curry needs a product domain")
    Y, X = P._factors
    E = exponential(X, f.cod)
    table = {}
    for y in Y:
        images = tuple(f(pair_label(y, x)) for x in X)
        table[y] = E.map_element(images)
    return FinMap(Y, E, table)


def equalizer(f, g):
    """The positions where two index tuples of the same length agree."""
    if len(f) != len(g):
        raise FinSetError("equalizer needs a parallel pair")
    return tuple(k for k, (x, y) in enumerate(zip(f, g)) if x == y)
