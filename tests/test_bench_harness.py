"""The benchmark harness in bench/ looks galmon's functions and methods up
by name to trace and to clear them; each of those names must still exist."""

import os

import galmon
import galmon.cli

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


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
