"""Unit tests for the run history and the BO loop (Algorithm 1)."""
import numpy as np
import pytest

from repro.core.bo import RunHistory, datasize_feature
from repro.core.config_space import ConfigSpace
from repro.core.objective import Constraint, ExecResult, TuningProblem
from repro.experiments.harness import run_tuning


@pytest.fixture()
def history():
    return RunHistory(ConfigSpace(), TuningProblem(beta=1.0))


def _result(rt, feasible=True, ds=1000.0):
    return ExecResult(runtime_s=rt, mem_gbh=1.0, cpu_coreh=1.0, feasible=feasible, datasize_mb=ds)


class TestRunHistory:
    def test_add_and_len(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(10))
        assert len(history) == 1

    def test_best_prefers_feasible(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(5, feasible=False))
        history.add(cfg, _result(50))
        assert history.best().objective == pytest.approx(50)

    def test_best_falls_back_to_infeasible(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(5, feasible=False))
        assert history.best().objective == pytest.approx(5)

    def test_best_none_when_empty(self, history):
        assert history.best() is None

    def test_objective_uses_problem_beta(self):
        h = RunHistory(ConfigSpace(), TuningProblem(beta=1.0))
        cfg = h.space.default_config()
        obs = h.add(cfg, _result(42))
        assert obs.objective == pytest.approx(42.0)

    def test_feasibility_uses_constraints(self):
        prob = TuningProblem(beta=1.0, constraints=(Constraint("runtime", 20.0),))
        h = RunHistory(ConfigSpace(), prob)
        cfg = h.space.default_config()
        assert h.add(cfg, _result(10)).feasible
        assert not h.add(cfg, _result(30)).feasible

    def test_X_unit_shapes(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(10))
        history.add(cfg, _result(20))
        assert history.X_unit().shape == (2, 30)
        assert history.X_unit(with_datasize=True).shape == (2, 31)

    def test_unit_rows_encoded_once(self, history, monkeypatch):
        space = history.space
        configs = space.sample_random(3, np.random.default_rng(0))
        for c in configs:
            history.add(c, _result(10))
        assert np.array_equal(history.X_unit(), [space.to_unit(c) for c in configs])
        monkeypatch.setattr(ConfigSpace, "to_unit", lambda *a: pytest.fail("re-encoded"))
        history.X_unit(with_datasize=True)

    def test_penalized_objectives(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(10))
        history.add(cfg, _result(5, feasible=False))
        y = history.penalized_objectives()
        assert y[1] >= 10 * 1.5  # pushed above feasible max

    def test_runtimes(self, history):
        cfg = history.space.default_config()
        history.add(cfg, _result(10))
        history.add(cfg, _result(30))
        assert np.allclose(history.runtimes(), [10, 30])


class TestDatasizeFeature:
    def test_monotone_and_bounded(self):
        assert datasize_feature(10.0) < datasize_feature(1e5)
        assert 0.0 <= datasize_feature(1.0) <= 1.0
        assert datasize_feature(1e6) == pytest.approx(1.0)


class TestLoop:
    def test_run_tuning_budget(self):
        space = ConfigSpace()

        class Dummy:
            def __init__(self):
                self.history = RunHistory(space, TuningProblem(beta=1.0))

            def suggest(self):
                return space.default_config()

            def observe(self, config, result):
                self.history.add(config, result)

        class Evaluator:
            def __init__(self):
                self.calls = []

            def evaluate(self, config, it):
                self.calls.append(it)
                return _result(10)

        evaluator = Evaluator()
        h = run_tuning(Dummy(), evaluator, budget=7)
        assert len(h) == 7 and evaluator.calls == list(range(7))
