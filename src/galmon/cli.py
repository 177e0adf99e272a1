"""Command line driver: JSON in, JSON (or DOT) out, deterministic bytes.

Exit codes: 0 success, 1 invalid input (schema or axiom), 2 a sizing guard
refused to enumerate.  Every JSON report carries schema "galmon/1".
"""

import argparse
import json
import os
import random
import sys

from .finset import FinSet, FinSetError, SizingError, singleton
from .monoid import (Monoid, MonoidHom, MonoidError, validate_monoid,
                     submonoid_tuples, is_hopf, hopf_witness, antipode,
                     kernel_pairs)
from .actions import (MAction, ActionError, validate_action, trivial_action,
                      restrict_action, hom_tuples, canonical_site, default_site, coinduct)
from .ends import EndError, end_of_forgetful, reconstruction_hom
from .galois import (GaloisError, Subfunctor, invariants,
                     stabilizer, stabilizer_via_end, galois_correspondence,
                     connection_law_failures, random_subfunctor)
from .report import write_report, write_text

SCHEMA = "galmon/1"


class InputError(Exception):
    """A file failed the published schema; the message names the cell."""


def _load(path):
    try:
        with open(path) as fd:
            return json.load(fd)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc.strerror))
    except json.JSONDecodeError as exc:
        raise InputError("%s is not JSON: %s" % (path, exc))


def _field(doc, key, kind, where):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError("%s is missing %r" % (where, key))
    if not isinstance(doc[key], kind):
        raise InputError("%s field %r has the wrong shape" % (where, key))
    return doc[key]


def _symbol(value, cell, *args):
    """value, unless it is a JSON array or object: no symbol can be one, and
    neither can be looked up in a set or a dict."""
    if isinstance(value, (list, dict)):
        raise InputError("%s: %s is not a symbol" % (cell % args, json.dumps(value)))
    return value


def parse_monoid(doc, where="monoid file"):
    """Read {"elements": [...], "unit": ..., "table": {a: {b: ab}}} by rows, with no pair dict."""
    elements = _field(doc, "elements", list, where)
    unit = _field(doc, "unit", str, where)
    rows = _field(doc, "table", dict, where)
    try:
        return Monoid.from_rows(FinSet(elements), unit, rows)
    except (FinSetError, MonoidError, KeyError, TypeError):
        pass  # a refused document is scanned cell by cell for its first error
    for a in elements:
        if _symbol(a, "%s elements", where) not in rows:
            raise InputError("%s table is missing row %r" % (where, a))
        row = rows[a]
        if not isinstance(row, dict):
            raise InputError("%s table row %r has the wrong shape" % (where, a))
        for b in elements:
            if _symbol(b, "%s elements", where) not in row:
                raise InputError("%s table row %r is missing column %r" % (where, a, b))
            _symbol(row[b], "%s table row %r column %r", where, a, b)
    return Monoid.from_rows(FinSet(elements), unit, rows)


def parse_action(doc, m, where="action file"):
    """Read {"set": [...], "act": {a: {x: ax}}} over the given monoid."""
    carrier = _field(doc, "set", list, where)
    rows = _field(doc, "act", dict, where)
    act = {}
    for a in m.elements:
        if a not in rows:
            raise InputError("%s act is missing row %r" % (where, a))
        row = rows[a]
        if not isinstance(row, dict):
            raise InputError("%s act row %r has the wrong shape" % (where, a))
        for x in carrier:
            if _symbol(x, "%s set", where) not in row:
                raise InputError("%s act row %r is missing column %r" % (where, a, x))
            act[(a, x)] = _symbol(row[x], "%s act row %r column %r", where, a, x)
    return MAction(m, FinSet(carrier), act)


def parse_subfunctor(doc, site, where="subfunctor file"):
    """Read {"subsets": {"<object-name>": [...]}}; omitted objects are empty."""
    subsets = _field(doc, "subsets", dict, where)
    for name, chosen in subsets.items():
        if not isinstance(chosen, list):
            raise InputError("%s subset %r has the wrong shape" % (where, name))
        for x in chosen:
            _symbol(x, "%s subset %r", where, name)
    return Subfunctor(site, {k: tuple(v) for k, v in subsets.items()})


def parse_hom(doc, dst, where="hom file"):
    """Read {"src": {...monoid...}, "map": {b: a}} into the given target."""
    src = parse_monoid(_field(doc, "src", dict, where), where="%s src" % where)
    bad = validate_monoid(src)
    if bad:
        raise InputError("%s src is not a monoid: %s" % (where, bad[0]))
    table = _field(doc, "map", dict, where)
    for b in src.elements:
        if b not in table:
            raise InputError("%s map is missing %r" % (where, b))
    return MonoidHom(src, dst, {b: _symbol(table[b], "%s map %r", where, b)
                                for b in src.elements})


def _site_for(m, spec, extra_actions=()):
    if extra_actions and not any(token.strip().partition(":")[0] == "custom"
                                 for token in spec.split("+")):
        raise InputError("--action files need a custom or custom:<dir> token in --site")
    if spec == "default":
        return default_site(m)
    tokens = []
    custom = list(extra_actions)
    for token in spec.split("+"):
        token = token.strip()
        if token.startswith("custom:"):
            directory = token[len("custom:"):]
            try:
                names = sorted(f for f in os.listdir(directory) if f.endswith(".json"))
            except OSError as exc:
                raise InputError("cannot list %s: %s" % (directory, exc.strerror))
            for fname in names:
                doc = _load(os.path.join(directory, fname))
                custom.append((fname[:-len(".json")],
                               parse_action(doc, m, where=fname)))
            token = "custom"
        if token != "custom" or token not in tokens:  # the pooled list goes in once
            tokens.append(token)
    return canonical_site(m, "+".join(tokens), custom=custom)


def _require(args, flag):
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise InputError("this command needs %s" % flag)
    return value


def _monoid_from(args):
    m = parse_monoid(_load(_require(args, "--monoid")))
    bad = validate_monoid(m)
    if bad:
        raise InputError("monoid file violates the laws: %s" % bad[0])
    return m


def _actions_from(args, m):
    return [(os.path.splitext(os.path.basename(path))[0],
             parse_action(_load(path), m, where=path)) for path in args.action or []]


def cmd_validate(args):
    m = parse_monoid(_load(_require(args, "--monoid")))
    report = {"schema": SCHEMA, "command": "validate",
              "monoid": {"elements": list(m.elements), "unit": m.unit},
              "violations": validate_monoid(m), "actions": {}}
    for name, act in _actions_from(args, m):
        report["actions"][name] = {"set": list(act.carrier.elements),
                                   "violations": validate_action(act)}
    bad = bool(report["violations"]) or any(
        entry["violations"] for entry in report["actions"].values())
    return (1 if bad else 0), report


def cmd_subgroups(args):
    m = _monoid_from(args)
    subs = submonoid_tuples(m)
    # m's laws hold, so its subgroups are the submonoids of units
    return 0, {"schema": SCHEMA, "command": "subgroups", "submonoids": subs,
               "subgroups": list(filter(m.units().issuperset, subs))}


def cmd_hopf(args):
    m = _monoid_from(args)
    report = {"schema": SCHEMA, "command": "hopf", "hopf": is_hopf(m)}
    if report["hopf"]:
        report["antipode"] = dict(zip(m.elements, map(m.elements.__getitem__, antipode(m))))
        report["witness"] = None
    else:
        report["antipode"] = None
        report["witness"] = hopf_witness(m)
    return 0, report


def cmd_inv(args):
    m = _monoid_from(args)
    site = _site_for(m, args.site, _actions_from(args, m))
    h = parse_hom(_load(_require(args, "--hom")), m)
    V = invariants(h, site)
    # trivial action -| fixed points: Inv_h(X) = Fix(Res_h X), the maps 1 -> Res_h X
    one = trivial_action(h.src, singleton())
    fixed = {name: [X.carrier.elements[y] for (y,) in hom_tuples(one, restrict_action(h, X))]
             for name, X in zip(site.names, site.objects)}
    O = Subfunctor(site, fixed)
    return 0, {"schema": SCHEMA, "command": "inv",
               "hom": {"src": list(h.src.elements),
                       "map": {b: h(b) for b in h.src.elements}},
               "site": list(site.names),
               "invariants": V.as_dict(), "oracle": O.as_dict(),
               "agree": V == O}


def cmd_stab(args):
    m = _monoid_from(args)
    site = _site_for(m, args.site, _actions_from(args, m))
    V = parse_subfunctor(_load(_require(args, "--sub")), site)
    S, _ = stabilizer(V)
    T = stabilizer_via_end(V)
    return 0, {"schema": SCHEMA, "command": "stab",
               "site": list(site.names), "subfunctor": V.as_dict(),
               "stabilizer": list(S.elements),
               "stabilizer_via_end": list(T.elements),
               "agree": S.elements == T.elements}


def cmd_end(args):
    m = _monoid_from(args)
    site = _site_for(m, args.site, _actions_from(args, m))
    end = end_of_forgetful(site)
    rho = reconstruction_hom(m, end)
    label = list(map(end.label, end.carrier))  # each family named once
    injective = len(set(rho)) == len(rho)
    return 0, {"schema": SCHEMA, "command": "end",
               "site": list(site.names),
               "families": sorted(label),
               "size": len(end),
               "unit": label[end.carrier.index(end.unit())],
               "reconstruction": {"map": {a: label[k] for a, k in zip(m.elements, rho)},
                                  "injective": injective,
                                  "isomorphism": injective and len(rho) == len(end),
                                  "kernel_pairs": [list(p) for p in
                                                   kernel_pairs(m.elements, rho)]}}


def cmd_corr(args):
    m = _monoid_from(args)
    site = _site_for(m, args.site, _actions_from(args, m))
    report = galois_correspondence(m, site)
    report["command"] = "corr"
    if args.out == "dot":
        return 0, _corr_dot(report)
    return 0, report


def cmd_coinduce(args):
    m = _monoid_from(args)
    h = parse_hom(_load(_require(args, "--hom")), m)
    paths = _require(args, "--action")
    if len(paths) > 1:
        raise InputError("coinduce takes one --action file, not %d" % len(paths))
    N = parse_action(_load(paths[0]), h.src, where=paths[0])
    bad = validate_action(N)
    if bad:
        raise InputError("%s is not an action: %s" % (paths[0], bad[0]))
    K = coinduct(h, N)
    return 0, {"schema": SCHEMA, "command": "coinduce",
               "monoid": list(m.elements),
               "set": list(K.carrier.elements),
               "act": {a: {x: K.apply(a, x) for x in K.carrier}
                       for a in m.elements}}


def cmd_laws(args):
    m = _monoid_from(args)
    site = _site_for(m, args.site, _actions_from(args, m))
    rng = random.Random(args.seed)
    extras = [random_subfunctor(site, rng) for _ in range(3)]
    failures = connection_law_failures(m, site, extra_subfunctors=extras)
    return 0, {"schema": SCHEMA, "command": "laws",
               "site": list(site.names), "seed": args.seed,
               "extra_subfunctors": [V.as_dict() for V in extras],
               "failures": failures, "ok": not failures}


def _hasse_edges(keys, below):
    """Cover relations of a finite order given its comparison test, strict
    or not: b covers a when no c in a's strict up-set lies below b."""
    up = {a: [b for b in keys if b != a and below(a, b)] for a in keys}
    upset = {a: set(bs) for a, bs in up.items()}
    return [(a, b) for a in keys for b in up[a]
            if not any(b in upset[c] for c in up[a])]


def _corr_dot(report):
    subs = [tuple(s) for s in report["closed_submonoids"]]
    vs = report["closed_subfunctors"]
    pair_of = {tuple(entry["submonoid"]): vs.index(entry["subfunctor"])
               for entry in report["bijection"]}
    lines = ["digraph correspondence {", "  rankdir=BT;"]
    lines.append("  subgraph cluster_submonoids {")
    lines.append('    label="closed submonoids";')
    for i, s in enumerate(subs):
        lines.append('    S%d [label="{%s}"];' % (i, ",".join(s)))
    sub_set = {s: frozenset(s) for s in subs}
    for a, b in _hasse_edges(subs, lambda a, b: sub_set[a] < sub_set[b]):
        lines.append("    S%d -> S%d;" % (subs.index(a), subs.index(b)))
    lines.append("  }")
    lines.append("  subgraph cluster_subfunctors {")
    lines.append('    label="closed subfunctors";')
    v_sets = [tuple(map(frozenset, v.values())) for v in vs]
    for i, v in enumerate(vs):
        sizes = "/".join(str(len(v[name])) for name in report["site"])
        lines.append('    V%d [label="sizes %s"];' % (i, sizes))
    for a, b in _hasse_edges(list(range(len(vs))), lambda i, j: all(
            map(frozenset.issubset, v_sets[i], v_sets[j]))):
        lines.append("    V%d -> V%d;" % (a, b))
    lines.append("  }")
    for i, s in enumerate(subs):
        lines.append("  S%d -> V%d [style=dashed, dir=none];" % (i, pair_of[s]))
    lines.append("}")
    return "\n".join(lines) + "\n"


COMMANDS = {
    "validate": (cmd_validate, "check a monoid table and any actions against the laws"),
    "subgroups": (cmd_subgroups, "list all submonoids and subgroups"),
    "hopf": (cmd_hopf, "test for a group structure and print the antipode"),
    "inv": (cmd_inv, "invariants of a hom, fixed-point route and oracle"),
    "stab": (cmd_stab, "stabilizer of a subfunctor, direct and through the end"),
    "end": (cmd_end, "the end of the underlying-carrier diagram and reconstruction"),
    "corr": (cmd_corr, "the full closed-object correspondence"),
    "coinduce": (cmd_coinduce, "the coinduced action along a hom"),
    "laws": (cmd_laws, "the connection laws over a site"),
}


def build_parser():
    """One parser for every command, which all take the same options."""
    parser = argparse.ArgumentParser(
        prog="galmon", usage="%(prog)s <command> [options]",
        description="invariants and stabilizers of finite monoid actions",
        epilog="commands:\n" + "\n".join("  %-11s%s" % (name, doc)
                                           for name, (_, doc) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--monoid", help="monoid JSON file")
    parser.add_argument("--action", action="append", help="action JSON file (repeatable)")
    parser.add_argument("--site", default="default",
                        help="default | free | cosets | trivial | a+b | custom "
                             "(the --action files) | custom:<dir>")
    parser.add_argument("--sub", help="subfunctor JSON file")
    parser.add_argument("--hom", help="hom JSON file")
    parser.add_argument("--out", choices=["json", "dot"], default="json")
    parser.add_argument("--seed", type=int, default=0)
    return parser


_PARSER = build_parser()  # holds the options only, never a result


def run(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        code, payload = COMMANDS[args.command][0](args)
    except (SizingError, InputError, FinSetError, MonoidError, ActionError, EndError,
            GaloisError) as exc:
        code = 2 if isinstance(exc, SizingError) else 1
        payload = {"schema": SCHEMA, "error": str(exc)}
    # the whole report exists before its first byte goes out, so a failure
    # prints only its error object
    if isinstance(payload, str):
        write_text(payload, sys.stdout)
    else:
        write_report(payload, sys.stdout)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
