"""Each output check accepts galmon's real report and rejects a corrupted
one, and a run completes when galmon's caches are gone.

    python3 -m pytest bench/test_checks.py
"""

import contextlib
import copy
import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import galmon  # noqa: E402
import monoids  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from galmon import actions, cli, ends, finset, galois  # noqa: E402


@pytest.fixture(scope="module")
def z4(tmp_path_factory):
    """Z4 relabelled, its monoid file and its reference."""
    t = monoids.cyclic(4).relabel(random.Random(7))
    path = str(tmp_path_factory.mktemp("z4") / "Z4.json")
    monoids.write(path, t.doc())
    return path, reference.Reference(t)


def report(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(list(argv)) == 0
    return json.loads(buf.getvalue())


def test_real_reports_pass(z4):
    path, ref = z4
    reference.check_subgroups(report("subgroups", "--monoid", path), ref)
    reference.check_corr(report("corr", "--monoid", path), ref)
    reference.check_end(report("end", "--monoid", path), ref)
    reference.check_laws(report("laws", "--monoid", path, "--seed", "3"), ref, 3)


def test_dropped_submonoid_is_rejected(z4):
    path, ref = z4
    bad = report("subgroups", "--monoid", path)
    del bad["submonoids"][1]
    with pytest.raises(reference.Mismatch, match="submonoids"):
        reference.check_subgroups(bad, ref)


def test_wrong_invariant_is_rejected(z4):
    path, ref = z4
    good = report("corr", "--monoid", path)
    row = good["submonoids"][-1]  # the whole group: it fixes few points
    name = "F(1)"
    assert row["invariants"][name] == []
    bad = copy.deepcopy(good)
    bad["submonoids"][-1]["invariants"][name] = ref.site[-1][1][:1]
    with pytest.raises(reference.Mismatch, match="wrong invariants"):
        reference.check_corr(bad, ref)


def test_end_of_the_wrong_size_is_rejected(z4):
    path, ref = z4
    bad = report("end", "--monoid", path)
    bad["families"].pop()
    bad["size"] -= 1
    with pytest.raises(reference.Mismatch, match="families"):
        reference.check_end(bad, ref)


def test_stab_off_the_pointwise_stabilizer_is_rejected(z4, tmp_path):
    path, ref = z4
    V = ref.invariants(ref.submonoids[1])
    sub = str(tmp_path / "V.json")
    monoids.write(sub, {"subsets": V})
    good = report("stab", "--monoid", path, "--sub", sub)
    reference.check_stab(good, ref, V)
    bad = copy.deepcopy(good)
    bad["stabilizer_via_end"] = bad["stabilizer"][:1]
    with pytest.raises(reference.Mismatch, match="end route"):
        reference.check_stab(bad, ref, V)


def test_run_completes_without_the_caches(z4, monkeypatch):
    """A galmon whose functions lost their lru_cache still runs both modes."""
    cached = [finset.product, finset.exponential, actions.default_site,
              galois.invariants, galois.stabilizer, ends.end_of_forgetful]
    for modname, mod in list(sys.modules.items()):
        if modname == "galmon" or modname.startswith("galmon."):
            for name, value in list(vars(mod).items()):
                if any(value is fn for fn in cached):
                    monkeypatch.setattr(mod, name, value.__wrapped__)
    assert not hasattr(finset.exponential, "cache_clear")
    path, ref = z4
    ops = [workloads.Op("corr Z4", lambda out: reference.check_corr(out, ref),
                        argv=["corr", "--monoid", path]),
           workloads.Op("end Z4", lambda out: reference.check_end(out, ref),
                        argv=["end", "--monoid", path]),
           workloads.Op("default_site Z4", lambda site: reference.check_site(site, ref),
                        monoid_path=path)]
    runner = run.Runner(galmon)
    _, plain = run.untraced(runner, ops, 0)
    _, spans = run.traced(runner, ops, 0)
    assert runner.failed == 0 and runner.correct
    assert set(plain) == {"sweep_norm", "peak_rss_mb", "longlived_rss_mb", "setup_s"}
    assert set(spans) == set(run.per_layer_units())
    assert spans["galois.invariants.hits"][0] == 0 < spans["galois.invariants.calls"][0]
    assert spans["finset.exponential.misses"][0] == spans["finset.exponential.calls"][0] > 0
