"""Unit tests for meta-learning (§5): similarity, warm-start, ensemble."""
import numpy as np
import pytest

from repro.core.bo import RunHistory
from repro.core.config_space import ConfigSpace
from repro.core.meta import (
    MetaLearner, SourceTask, cv_weight, kendall_tau, rank_distance, surrogate_distance,
)
from repro.core.objective import ExecResult, TuningProblem


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


def _task(space, name, fn, n=20, seed=0, meta_shift=0.0):
    """Synthetic source task whose objective is fn(unit vector)."""
    rng = np.random.default_rng(seed)
    h = RunHistory(space, TuningProblem(beta=1.0))
    for _ in range(n):
        cfg = space.sample_random(1, rng)[0]
        rt = float(fn(space.to_unit(cfg)))
        h.add(cfg, ExecResult(runtime_s=rt, mem_gbh=1, cpu_coreh=1, datasize_mb=1000))
    meta = np.full(75, meta_shift) + rng.normal(0, 0.01, 75)
    return SourceTask(name, meta, h)


class TestKendallTau:
    def test_perfect_agreement(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert kendall_tau(a, a * 10) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert kendall_tau(a, -a) == pytest.approx(-1.0)

    def test_known_value(self):
        # one discordant pair of six → tau = (5-1)/6
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 2.0, 4.0, 3.0])
        assert kendall_tau(a, b) == pytest.approx(4.0 / 6.0)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            kendall_tau(np.array([1.0]), np.array([1.0]))

    def test_rank_distance_range(self):
        assert rank_distance(1.0) == 0.0
        assert rank_distance(-1.0) == 1.0
        assert rank_distance(0.0) == 0.5


class TestSurrogateDistance:
    def test_self_distance_small(self, space):
        t = _task(space, "a", lambda u: 100 * u[0])
        assert surrogate_distance(t, t, space) < 0.05

    def test_similar_closer_than_opposite(self, space):
        t1 = _task(space, "a", lambda u: 100 * u[0], seed=1)
        t2 = _task(space, "b", lambda u: 110 * u[0] + 3, seed=2)
        t3 = _task(space, "c", lambda u: -100 * u[0], seed=3)
        assert surrogate_distance(t1, t2, space) < surrogate_distance(t1, t3, space)

    def test_range(self, space):
        t1 = _task(space, "a", lambda u: 100 * u[0], seed=1)
        t3 = _task(space, "c", lambda u: -100 * u[0], seed=3)
        d = surrogate_distance(t1, t3, space)
        assert 0.0 <= d <= 1.0


class TestMetaLearner:
    @pytest.fixture(scope="class")
    def learner(self, space):
        tasks = [
            _task(space, "inst-a", lambda u: 100 * u[0], seed=1, meta_shift=0.0),
            _task(space, "inst-b", lambda u: 120 * u[0], seed=2, meta_shift=0.05),
            _task(space, "anti-a", lambda u: -100 * u[0], seed=3, meta_shift=1.0),
            _task(space, "anti-b", lambda u: -90 * u[0], seed=4, meta_shift=1.05),
        ]
        return MetaLearner(space, seed=0).fit(tasks), tasks

    def test_predict_distance_in_range(self, learner):
        ml, tasks = learner
        d = ml.predict_distance(tasks[0].meta, tasks[2].meta)
        assert 0.0 <= d <= 1.0

    def test_similar_tasks_ranked_first(self, learner):
        ml, tasks = learner
        ranked = ml.rank_sources(tasks[0].meta + 0.01)
        assert ranked[0][0].name.startswith("inst")

    def test_warm_start_configs(self, learner):
        ml, tasks = learner
        configs = ml.warm_start_configs(tasks[0].meta, k=3)
        assert len(configs) == 3
        for c in configs:
            assert set(c) == set(ml.space.names)

    def test_needs_two_tasks(self, space):
        with pytest.raises(ValueError):
            MetaLearner(space).fit([_task(space, "solo", lambda u: u[0])])

    def test_unfitted_raises(self, space):
        with pytest.raises(RuntimeError):
            MetaLearner(space).predict_distance(np.zeros(75), np.zeros(75))


class TestEnsembleSurrogate:
    def test_eq12_combination(self, space):
        tasks = [
            _task(space, "a", lambda u: 100 * u[0], seed=1),
            _task(space, "b", lambda u: 105 * u[0], seed=2),
            _task(space, "c", lambda u: -100 * u[0], seed=3),
        ]
        ml = MetaLearner(space, seed=0).fit(tasks)
        factory = ml.ensemble_factory(tasks[0].meta)
        rng = np.random.default_rng(5)
        X = rng.random((10, space.dim))
        y = 100 * X[:, 0]
        from repro.core.gp import GaussianProcess

        ens = factory(X, y, GaussianProcess(space.cat_mask))
        mu, sd = ens.predict(rng.random((6, space.dim)))
        assert mu.shape == (6,) and sd.shape == (6,)
        assert np.all(sd >= 0)

    def test_ensemble_ranks_like_target(self, space):
        tasks = [
            _task(space, "a", lambda u: 100 * u[0], seed=1),
            _task(space, "b", lambda u: 105 * u[0], seed=2),
        ]
        ml = MetaLearner(space, seed=0).fit(tasks)
        factory = ml.ensemble_factory(tasks[0].meta)
        from repro.core.gp import GaussianProcess

        # scarce current-task data: 3 points only
        rng = np.random.default_rng(6)
        X = rng.random((3, space.dim))
        ens = factory(X, 100 * X[:, 0], GaussianProcess(space.cat_mask))
        lo = np.zeros(space.dim)[None, :]
        hi = np.ones(space.dim)[None, :]
        mu_lo, _ = ens.predict(lo)
        mu_hi, _ = ens.predict(hi)
        assert mu_hi[0] > mu_lo[0]  # source knowledge orients the surrogate

    def test_current_weight_computed_once(self, space, monkeypatch):
        tasks = [
            _task(space, "a", lambda u: 100 * u[0], seed=1),
            _task(space, "b", lambda u: 105 * u[0], seed=2),
        ]
        factory = MetaLearner(space, seed=0).fit(tasks).ensemble_factory(tasks[0].meta)
        from repro.core.gp import GaussianProcess

        rng = np.random.default_rng(7)
        X = rng.random((12, space.dim))
        y = 100 * X[:, 0] + rng.normal(0, 5, 12)
        ens = factory(X, y, GaussianProcess(space.cat_mask))
        assert ens.current_weight == cv_weight(ens.current, X, y)
        assert 0.1 <= ens.current_weight <= 1.0
        calls = []
        real = ens.current.predict
        monkeypatch.setattr(ens.current, "predict", lambda U: calls.append(len(U)) or real(U))
        ens.predict(rng.random((6, space.dim)))
        ens.predict(rng.random((4, space.dim)))
        assert calls == [6, 4]  # the query rows only, never the training rows
