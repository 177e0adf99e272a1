"""The one work limit: every sizing guard reads `finset.MAX_ENUMERATION` at
call time and words its refusal through `finset.refusal`, so patching that
one name moves every guard, and no other module binds a limit of its own."""

import ast
import glob
import os

import pytest

from galmon import finset, samples
from galmon.finset import FinSet, SizingError, exponential, product
from galmon.monoid import submonoid_tuples
from galmon.actions import canonical_site, hom_tuples, trivial_action
from galmon.ends import ForgetfulDiagram, end_monoid, end_of_forgetful, internal_nat

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "galmon")


def points(n):
    return FinSet(str(i) for i in range(n))


def s3_site(recipe):
    custom = [("s3_natural", samples.natural_action3())]
    return canonical_site(samples.symmetric3(), recipe, custom=custom)


def s3_end(recipe):
    U = ForgetfulDiagram(s3_site(recipe))
    internal_nat(U, U)  # the site's hom sets are read off, under the default limit
    return lambda: internal_nat(U, U)


# (layer, what to build under the default limit, what it builds into a
# call the guard refuses, the patched limit, the refusal)
GUARDS = [
    ("product", lambda: (points(3), points(4)), product, 11,
     "finset.product: 3 x 4 elements exceed the limit of 11"),
    ("exponential", lambda: (points(3), points(2)), lambda X, Z: list(exponential(X, Z)), 7,
     "finset.exponential: 2^3 elements exceed the limit of 7"),
    # each generating point of E3 tries 3 values and writes 3 images
    ("read_off", lambda: (trivial_action(samples.cyclic(2), points(3)),),
     lambda E: hom_tuples(E, E), 7,
     "actions: 12 candidate assignments exceed the limit of 7"),
    ("canonical_site", lambda: (samples.cyclic(3),), lambda m: canonical_site(m, "free+trivial"),
     11, "actions.canonical_site: 12 table cells exceed the limit of 11"),
    ("closure_products", lambda: (samples.symmetric3(),), submonoid_tuples, 1,
     "monoid.enumerate_submonoids: 2 closure products exceed the limit of 1"),
    # the walk composes a 6-cell table along each edge out of a point
    ("internal_nat", lambda: (s3_end("free"),), lambda nat: nat(), 10,
     "ends: 12 candidate assignments exceed the limit of 10"),
    # with no free object in the site, the families are searched (87 units of work)
    ("end_of_forgetful", lambda: (s3_site("custom"),), end_of_forgetful, 86,
     "ends: 87 candidate assignments exceed the limit of 86"),
    ("end_monoid", lambda: (end_of_forgetful(s3_site("custom")),), end_monoid, 728,
     "ends.end_monoid: 729 table cells exceed the limit of 728"),
]


@pytest.mark.parametrize("build, call, limit, message", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_each_guard_reads_the_one_limit(build, call, limit, message, monkeypatch):
    args = build()
    monkeypatch.setattr(finset, "MAX_ENUMERATION", limit)
    with pytest.raises(SizingError) as exc:
        call(*args)
    assert str(exc.value) == message


def test_an_end_monoid_is_charged_its_table_before_any_composition(monkeypatch):
    # S3 on its three points alone: 27 wedge families, 729 table cells,
    # where internal_nat finds them in 87 units of work: the walk writes 3
    # cells along the one generating morphism out of each point, and the
    # read-off tries 3 values and writes 3 images 13 times
    site = s3_site("custom")
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 87)
    end = end_of_forgetful(site)
    assert len(end) == 27
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 728)
    with pytest.raises(SizingError):
        end_monoid(end)
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 729)
    assert len(end_monoid(end)) == 27
    # the end read off a free object is charged its table like any other
    free = end_of_forgetful(s3_site("free"))
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 35)
    with pytest.raises(SizingError) as exc:
        end_monoid(free)
    assert str(exc.value) == "ends.end_monoid: 36 table cells exceed the limit of 35"
    monkeypatch.setattr(finset, "MAX_ENUMERATION", 36)
    assert len(end_monoid(free)) == 6


def test_only_finset_binds_a_limit_or_words_a_refusal():
    # elsewhere a limit is only read, as the attribute finset.MAX_...
    limits = {"MAX_ENUMERATION", "MAX_MATERIALIZED"}
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(paths) > 1 and any(p.endswith("finset.py") for p in paths)
    for path in paths:
        if os.path.basename(path) == "finset.py":
            continue
        with open(path, encoding="utf-8") as fd:
            text = fd.read()
        for node in ast.walk(ast.parse(text)):
            name = (node.id if isinstance(node, ast.Name) else
                    node.arg if isinstance(node, ast.arg) else
                    node.asname or node.name if isinstance(node, ast.alias) else
                    node.attr if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store) else None)
            assert name not in limits and name != "*", (path, node.lineno)
        assert "exceed the limit" not in text, path


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports names only to export them
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    for path in paths:
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fd:
            tree = ast.parse(fd.read())
        bound = {(alias.asname or alias.name).partition(".")[0]
                 for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert bound <= used, (path, sorted(bound - used))
