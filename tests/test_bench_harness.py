"""The benchmark harness in bench/ looks galmon's functions and methods up
by name to trace and to clear them; each of those names must still exist,
and the traced functions must still take the arguments its wrappers read."""

import os

import galmon
import galmon.cli

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(HERE, os.pardir, "bench")
FIXTURES = os.path.join(HERE, os.pardir, "fixtures")


def test_the_harness_finds_every_name_it_looks_up(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import layers
    import run
    original = galmon.actions.default_site
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert galmon.actions.default_site is not original
    finally:
        tracer.uninstall()
    assert galmon.actions.default_site is original
    run.Runner(galmon)


def test_a_traced_stab_runs_and_counts_its_end(monkeypatch, capsys):
    # the `nat` counter reads internal_nat's first two arguments, V and W
    monkeypatch.syspath_prepend(BENCH)
    import layers
    tracer = layers.Tracer()
    try:
        tracer.install()
        code = galmon.cli.run(["stab", "--monoid", os.path.join(FIXTURES, "s3.json"),
                               "--sub", os.path.join(FIXTURES, "a3_invariants.json")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.calls["ends.internal_nat"] >= 1
    assert tracer.count["ends.internal_nat.families"] >= 1
