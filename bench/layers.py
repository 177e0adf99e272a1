"""Per-layer spans and counters, taken from outside galmon.

install() wraps public functions of galmon's modules by rebinding each name
in every galmon module that holds it (``exponential`` lives in finset,
galois and ends; ``enumerate_submonoids`` in monoid, galois and
cli), and wraps a few methods on their classes.  A span's self time is its
duration minus the time of the traced spans nested in it.  uninstall()
puts every original back.
"""

import sys
import time
from collections import defaultdict

# (metric prefix, defining module, attribute, what else the wrapper records)
SPANS = [
    ("cli.run", "cli", "run", ()),
    ("cli.parse", "cli", "parse_monoid", ()),
    ("cli.parse", "cli", "parse_action", ()),
    ("cli.parse", "cli", "parse_subfunctor", ()),
    ("cli.parse", "cli", "parse_hom", ()),
    ("cli.validate_monoid", "monoid", "validate_monoid", ()),
    ("monoid.enumerate_submonoids", "monoid", "enumerate_submonoids", ("scan",)),
    ("monoid.enumerate_subgroups", "monoid", "enumerate_subgroups", ()),
    ("monoid.submonoid", "monoid", "submonoid", ()),
    ("monoid.is_hopf", "monoid", "is_hopf", ()),
    ("actions.default_site", "actions", "default_site", ("cache",)),
    ("actions.coset_action", "actions", "coset_action", ()),
    ("actions.validate_action", "actions", "validate_action", ()),
    ("finset.exponential", "finset", "exponential", ("cache",)),
    ("finset.product", "finset", "product", ("cache",)),
    ("finset.curry", "finset", "curry", ()),
    ("finset.equalizer", "finset", "equalizer", ()),
    ("ends.internal_nat", "ends", "internal_nat", ("nat",)),
    ("ends.end_of_forgetful", "ends", "end_of_forgetful", ("cache",)),
    ("ends.family_restriction", "ends", "family_restriction", ()),
    ("ends.trivial_path", "ends", "trivial_path", ()),
    ("ends.reconstruction_hom", "ends", "reconstruction_hom", ()),
    ("ends.end_monoid", "ends", "end_monoid", ()),
    ("galois.invariants", "galois", "invariants", ("cache",)),
    ("galois.stabilizer", "galois", "stabilizer", ("cache",)),
    ("galois.stabilizer_via_end", "galois", "stabilizer_via_end", ()),
    ("galois.galois_correspondence", "galois", "galois_correspondence", ()),
    ("galois.connection_law_failures", "galois", "connection_law_failures", ()),
    ("galois.random_subfunctor", "galois", "random_subfunctor", ()),
    ("galois.Subfunctor", "galois", "Subfunctor.__init__", ()),
]

# the counters each yield divides: (useful outcomes, attempts)
YIELDS = {"monoid.enumerate_submonoids": ("found", "scanned"),
          "ends.internal_nat": ("families", "candidates")}


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "galmon" or name.startswith("galmon."))]


class Tracer:
    """Self time, calls and counters per metric prefix."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self._stack = []
        self._undo = []

    def _span(self, key, fn, extras):
        stack = self._stack
        # A function without a cache computes on every call: each call is a miss.
        cached = "cache" in extras and hasattr(fn, "cache_info")

        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses if cached else 0
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self.self_s[key] += dt - child
                if stack:
                    stack[-1] += dt
                self.calls[key] += 1
            if "cache" in extras:
                if not cached or fn.cache_info().misses > before:
                    self.count[key + ".misses"] += 1
                    if key.startswith("finset."):
                        self.count[key + ".elements"] += len(result)
                else:
                    self.count[key + ".hits"] += 1
            if "scan" in extras:
                self.count[key + ".scanned"] += 2 ** (len(args[0]) - 1)
                self.count[key + ".found"] += len(result)
            if "nat" in extras:
                V, W = args[0], args[1]
                self.count[key + ".candidates"] += sum(
                    len(w) ** len(v) for v, w in zip(V.obs, W.obs))
                self.count[key + ".families"] += len(result)
            return result

        return wrapper

    def install(self):
        mods = {m.__name__.rpartition(".")[2]: m for m in _modules()}
        for key, modname, attr, extras in SPANS:
            owner = mods[modname]
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                orig = owner.__dict__[meth]
                setattr(owner, meth, self._span(key, orig, extras))
                self._undo.append((owner, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._span(key, orig, extras)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, orig))
        # Site.iter_hom_tuples runs once per end candidate; a span there would
        # cost more than the work.  Its only work is materializing a hom set in
        # Site._filtered, so the span covers that miss path alone.
        site = mods["actions"].Site
        filtered = site.__dict__["_filtered"]
        materialize = self._span("actions.iter_hom_tuples", filtered, ())

        def counted(this, i, j):
            if (i, j) in this._homs:
                return this._homs[(i, j)]
            out = materialize(this, i, j)
            self.count["actions.hom_tuples"] += len(out)
            return out

        site._filtered = counted
        self._undo.append((site, "_filtered", filtered))

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []

    def metrics(self, names):
        """The value of each named metric; trace.* names are left out."""
        out = {}
        for name in names:
            prefix, _, field = name.rpartition(".")
            if prefix.startswith("trace"):
                continue
            if prefix.startswith("layer."):
                layer = prefix.partition(".")[2]
                out[name] = sum(v for k, v in self.self_s.items()
                                if k.split(".")[0] == layer)
            elif field in ("s", "self_s"):
                out[name] = self.self_s[prefix]
            elif field == "calls":
                out[name] = self.calls[prefix]
            elif field == "yield":
                num, den = YIELDS[prefix]
                d = self.count[prefix + "." + den]
                out[name] = self.count[prefix + "." + num] / d if d else 0.0
            else:
                out[name] = self.count[name]
        return out
