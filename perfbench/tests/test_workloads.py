"""Seed determinism and output checks of the three workloads, at small
budgets so the suite stays fast."""
from dataclasses import replace

import pytest

import run
import workloads
from tracing import Tracer

SMALL = {
    "online-hibench": 8,      # past the 3-point initial design
    "baselines-hibench": 13,  # past DAC/RFHOC's 12-run warm-up
    "meta-warmstart": 8,
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def workload(request):
    wl = replace(workloads.WORKLOADS[request.param], budget=SMALL[request.param])
    return wl, wl.setup()


def _round(wl, env, seed, tracer=None):
    sessions = list(wl.sessions(env, seed, 0, tracer))
    return workloads.digest(sessions), run.quality(sessions), sessions


def test_same_seed_repeats_and_other_seed_differs(workload):
    wl, env = workload
    d1, q1, s1 = _round(wl, env, 3)
    d2, q2, _ = _round(wl, env, 3)
    d3, q3, _ = _round(wl, env, 4)
    assert (d1, q1) == (d2, q2)
    assert d3 != d1 and q3 != q1
    assert all(s.failed == 0 and s.attempted == wl.budget for s in s1)
    assert any(s.model_suggest_s for s in s1)


def test_tracing_does_not_change_suggestions(workload):
    wl, env = workload
    d_plain, q_plain, _ = _round(wl, env, 3)
    tracer = Tracer()
    with tracer.installed():
        d_traced, q_traced, _ = _round(wl, env, 3, tracer)
    assert (d_traced, q_traced) == (d_plain, q_plain)


def test_output_checks_reject_off_grid_configs_and_non_finite_results():
    space = workloads.hibench_space()
    config = space.default_config()
    assert workloads.config_on_grid(space, config)
    assert not workloads.config_on_grid(space, {**config, "spark.executor.cores": 2.5})
    reordered = dict(reversed(list(config.items())))
    assert not workloads.config_on_grid(space, reordered)
    bad = workloads.ExecResult(runtime_s=float("nan"), mem_gbh=1.0, cpu_coreh=1.0)
    assert not workloads.result_finite(bad)
