"""Unit tests for the safe & efficient config generator (Algorithm 2)."""
import numpy as np
import pytest

from repro.core.acquisition import expected_improvement
from repro.core.agd import N_AGD
from repro.core.bo import RunHistory
from repro.core.config_space import ConfigSpace
from repro.core.generator import GAMMA, ConfigGenerator, propose
from repro.core.gp import GaussianProcess
from repro.core.objective import Constraint, ExecResult, TuningProblem, resource


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


def _history(space, problem, n=8, seed=0, runtime_fn=None):
    rng = np.random.default_rng(seed)
    h = RunHistory(space, problem)
    for _ in range(n):
        cfg = space.sample_random(1, rng)[0]
        rt = runtime_fn(cfg) if runtime_fn else float(rng.uniform(50, 150))
        h.add(cfg, ExecResult(runtime_s=rt, mem_gbh=1, cpu_coreh=1, datasize_mb=1000))
    return h


class TestSuggest:
    def test_empty_history_returns_default(self, space):
        gen = ConfigGenerator(space, TuningProblem(beta=0.5), seed=0)
        assert gen.suggest(RunHistory(space, TuningProblem(beta=0.5))) == space.default_config()

    def test_returns_valid_config(self, space):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0)
        h = _history(space, prob)
        cfg = gen.suggest(h)
        assert set(cfg) == set(space.names)
        u = space.to_unit(cfg)
        assert np.all((u >= 0) & (u <= 1))

    def test_agd_cadence(self, space):
        # at |D|+1 ≡ 0 (mod N_AGD) the suggestion comes from AGD: it
        # perturbs only numeric sub-space dims of the incumbent
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0)
        h = _history(space, prob, n=2 * N_AGD - 1)  # past the §4.3 sufficiency gate
        best = h.best().config
        cfg = gen.suggest(h)
        for p in space.params:
            if p.kind == "cat":
                assert cfg[p.name] == best[p.name]

    def test_agd_disabled(self, space):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False)
        h = _history(space, prob, n=2 * N_AGD - 1)
        cfg = gen.suggest(h)  # must not crash and must be valid
        assert set(cfg) == set(space.names)

    def test_resource_constraint_filtering(self, space):
        small = resource(space.clip(space.default_config() | {"spark.executor.instances": 50}))
        prob = TuningProblem(beta=0.5, constraints=(Constraint("resource", small),))
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False)
        h = _history(space, prob)
        for _ in range(3):
            cfg = gen.suggest(h)
            assert resource(cfg) <= small * 1.01

    def test_no_duplicate_of_observed(self, space):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False)
        h = _history(space, prob, n=6)
        seen = {tuple(sorted(o.config.items())) for o in h.observations}
        cfg = gen.suggest(h)
        assert tuple(sorted(cfg.items())) not in seen

    def test_safe_region_avoids_predicted_violations(self, space):
        # runtime grows steeply with instances; threshold excludes the top
        i_inst = space.index_of("spark.executor.instances")

        def rt(cfg):
            return 10.0 + 1000.0 * space.to_unit(cfg)[i_inst]

        prob = TuningProblem(beta=0.5, constraints=(Constraint("runtime", 200.0),))
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False)
        h = _history(space, prob, n=14, runtime_fn=rt)
        picks = [gen.suggest(h) for _ in range(5)]
        # most picks should sit in the low-instances (safe) half
        units = [space.to_unit(c)[i_inst] for c in picks]
        assert np.mean(units) < 0.6

    def test_last_ei_updated(self, space):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False)
        h = _history(space, prob)
        gen.suggest(h)
        assert np.isfinite(gen.last_ei)

    def test_subspace_pins_unimportant_dims(self, space):
        prob = TuningProblem(beta=0.5)
        gen = ConfigGenerator(space, prob, seed=0, use_agd=False, use_safe=False)
        gen.subspace.k = gen.subspace.k_min = gen.subspace.k_max = 4
        h = _history(space, prob)
        best = h.best().config
        cfg = gen.suggest(h)
        dims = set(gen.subspace.current_dims())
        diffs = [
            i for i, p in enumerate(space.params) if cfg[p.name] != best[p.name]
        ]
        assert set(diffs) <= dims


class _Fixed:
    """A surrogate whose posterior over the pool is given."""

    def __init__(self, mu, sd):
        self.mu, self.sd = np.asarray(mu, float), np.asarray(sd, float)

    def predict(self, U):
        return self.mu, self.sd


class TestPropose:
    def test_unconstrained_is_argmax_ei(self, space):
        rng = np.random.default_rng(0)
        X, U = rng.random((12, space.dim)), space.sample_unit(300, rng)
        y = X[:, 0] + 0.1 * rng.standard_normal(12)
        gp = GaussianProcess(space.cat_mask).fit(X, y)
        idx, value = propose(U, gp, float(y.min()))
        ei = expected_improvement(*gp.predict(U), float(y.min()))
        assert idx == int(np.argmax(ei)) and value == ei[idx]

    def test_no_safe_row_falls_back_to_lowest_upper_bound(self):
        mu_t, sd_t = np.log([300.0, 250.0, 400.0]), np.array([0.1, 0.9, 0.01])
        runtime = (_Fixed(mu_t, sd_t), [100.0])  # every row's bound exceeds 100 s
        idx, value = propose(np.zeros((3, 2)), _Fixed([1, 2, 3], [1, 1, 1]), 0.5, runtime, GAMMA)
        assert idx == int(np.argmin(mu_t + GAMMA * sd_t)) and value == float("inf")

    def test_safe_region_masks_higher_eic(self):
        # row 0 has the best EI but lies outside the safe region
        runtime = (_Fixed(np.log([90.0, 50.0, 60.0]), [0.5, 0.01, 0.01]), [100.0])
        f = _Fixed([0.0, 5.0, 6.0], [1.0, 1.0, 1.0])
        assert propose(np.zeros((3, 2)), f, 4.0, runtime)[0] == 0
        assert propose(np.zeros((3, 2)), f, 4.0, runtime, GAMMA)[0] == 1
