"""Unit tests for the OnlineTune controller (§3.1/§3.3)."""
import numpy as np
import pytest

from repro.baselines.base import YES
from repro.core import controller
from repro.core.bo import datasize_feature
from repro.core.config_space import ConfigSpace
from repro.core.controller import OnlineTuner
from repro.core.gp import GaussianProcess
from repro.core.objective import Constraint, ExecResult, TuningProblem, resource


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


def _result(rt, ds=1000.0, feasible=True):
    return ExecResult(runtime_s=rt, mem_gbh=1, cpu_coreh=1, feasible=feasible, datasize_mb=ds)


class TestInit:
    def test_capabilities_all_yes(self):
        assert OnlineTuner.capabilities.row() == (YES,) * 6

    def test_reference_config_evaluated_first(self, space):
        ref = space.clip(space.default_config() | {"spark.executor.instances": 42})
        t = OnlineTuner(space, TuningProblem(beta=0.5), seed=0, use_meta=False,
                        reference_config=ref)
        assert t.suggest() == ref

    def test_sobol_init_without_reference(self, space):
        t = OnlineTuner(space, TuningProblem(beta=0.5), seed=0, use_meta=False)
        first = [t._init_configs[i] for i in range(t.n_init)]
        assert len(first) == 3
        assert len({tuple(sorted(c.items())) for c in first}) == 3

    def test_init_repair_respects_resource_constraint(self, space):
        rmax = resource(space.clip(space.default_config() | {"spark.executor.instances": 30}))
        prob = TuningProblem(beta=0.5, constraints=(Constraint("resource", rmax),))
        t = OnlineTuner(space, prob, seed=0, use_meta=False)
        for c in t._init_configs:
            assert resource(c) <= rmax

    def test_no_repair_when_unsafe(self, space):
        rmax = resource(space.clip(space.default_config() | {"spark.executor.instances": 2}))
        prob = TuningProblem(beta=0.5, constraints=(Constraint("resource", rmax),))
        t = OnlineTuner(space, prob, seed=0, use_meta=False, use_safe=False)
        # vanilla-BO ablation keeps raw Sobol inits (may violate)
        assert any(resource(c) > rmax for c in t._init_configs)


class TestObserve:
    def test_subspace_counters_fed(self, space):
        t = OnlineTuner(space, TuningProblem(beta=0.5), seed=0, use_meta=False)
        cfg = space.default_config()
        t.observe(cfg, _result(100))
        t.observe(cfg, _result(50))   # improvement → success
        t.observe(cfg, _result(500))  # worse → failure
        assert len(t.history) == 3

    def test_iterates_and_returns_valid(self, space):
        t = OnlineTuner(space, TuningProblem(beta=0.5), seed=0, use_meta=False)
        rng = np.random.default_rng(0)
        for it in range(7):
            cfg = t.suggest()
            assert set(cfg) == set(space.names)
            t.observe(cfg, _result(float(rng.uniform(50, 150))))
        assert len(t.history) == 7

    def test_best_config(self, space):
        t = OnlineTuner(space, TuningProblem(beta=1.0), seed=0, use_meta=False)
        a = space.clip(space.default_config() | {"spark.executor.instances": 10})
        b = space.clip(space.default_config() | {"spark.executor.instances": 20})
        t.observe(a, _result(100))
        t.observe(b, _result(10))
        assert t.best_config() == b


class TestExpectation:
    def test_one_fit_per_surrogate_per_suggest(self, space, monkeypatch):
        # the restart expectation reuses the objective GP the generator fitted
        t = OnlineTuner(space, TuningProblem(beta=0.5), seed=0, use_meta=False)
        for rt in (100.0, 80.0, 120.0):
            t.observe(t.suggest(), _result(rt))
        fits = []
        fit = GaussianProcess.fit
        monkeypatch.setattr(GaussianProcess, "fit", lambda gp, X, y: fits.append(1) or fit(gp, X, y))
        cfg = t.suggest()
        assert len(fits) == 2
        u = np.append(space.to_unit(cfg), datasize_feature(1000.0))[None, :]
        predicted = float(t.generator.gp_f.predict(u)[0][0])
        assert t._expected[3] == min(t.history.best().objective, predicted)


class TestStopping:
    def test_stopped_tuner_serves_incumbent(self, space):
        t = OnlineTuner(space, TuningProblem(beta=1.0), seed=0, use_meta=False)
        cfg = space.default_config()
        t.observe(cfg, _result(100))
        t.stopped = True
        assert t.suggest() == cfg

    def test_restart_on_degradation(self, space, monkeypatch):
        monkeypatch.setattr(controller, "DEGRADATION_PATIENCE", 2)
        t = OnlineTuner(space, TuningProblem(beta=1.0), seed=0, use_meta=False)
        t.stopped = False
        t._degradations = 0
        cfg = space.default_config()
        for i in range(4):
            t.observe(cfg, _result(100))
        # seed expectations then feed degraded outcomes
        t._expected[len(t.history)] = 10.0
        t.observe(cfg, _result(100))
        t._expected[len(t.history)] = 10.0
        t.observe(cfg, _result(100))
        assert t._degradations == 0  # reset by the restart path
