import itertools
import sys

import numpy as np
import pytest

import tracing
import workloads
from tracing import WRAPPED_MARK, Tracer


@pytest.fixture
def clock(monkeypatch):
    """perf_counter returning 0, 1, 2, ... on successive calls."""
    ticks = itertools.count()
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))


def test_self_time_of_synthetic_call_tree(clock):
    t = Tracer()
    # root [0, 9]: a [1, 4] holds leaf [2, 3]; b [5, 8] holds leaf [6, 7]
    with t.span("root"):
        with t.span("a"):
            with t.span("leaf"):
                pass
        with t.span("b"):
            with t.span("leaf"):
                pass
    totals = t.totals()
    assert totals["root"] == {"calls": 1, "s": 9.0, "self_s": 3.0}
    assert totals["a"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert totals["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert totals["leaf"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert t.count_within("leaf", "a") == 1
    assert t.count_within("leaf", "root") == 2
    assert t.parents_with_child("root", "a") == 1
    assert t.parents_with_child("a", "b") == 0


def test_wrapper_records_span_counts_and_propagates_errors(clock):
    t = Tracer()

    def f(self, X):
        if X is None:
            raise ValueError("boom")
        return X

    g = t.wrap(f, "f", tracing._rows)
    assert g(None, np.zeros((5, 2))).shape == (5, 2)
    with pytest.raises(ValueError):
        g(None, None)
    assert t.totals()["f"]["calls"] == 2
    assert t.counts["f.rows"] == 5
    assert t._stack == []


def _wrappers_in_repro() -> set[int]:
    """Ids of the tracer wrappers reachable from any loaded repro module."""
    found = set()
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for obj in vars(mod).values():
            for value in vars(obj).values() if isinstance(obj, type) else [obj]:
                if getattr(value, WRAPPED_MARK, False):
                    found.add(id(value))
    return found


def test_traced_round_leaves_no_wrapper_behind():
    wl = workloads.OnlineHiBench(tasks=("terasort",), budget=6)
    env = wl.setup()
    tracer = Tracer()
    with tracer.installed():
        assert len(_wrappers_in_repro()) == len(tracing.targets())
        list(wl.sessions(env, 0, 0, tracer))
    assert _wrappers_in_repro() == set()
    totals = tracer.totals()
    assert totals["gp.fit"]["calls"] > 0 and totals["sim.run"]["calls"] == 6
