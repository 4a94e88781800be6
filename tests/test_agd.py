"""Unit tests for approximate gradient descent (§4.3)."""
import numpy as np
import pytest

from repro.core import agd
from repro.core.agd import MAX_STEP, AGDStepper, N_AGD
from repro.core.config_space import ConfigSpace
from repro.core.gp import GaussianProcess
from repro.core.objective import resource


@pytest.fixture(scope="module")
def space():
    return ConfigSpace()


def _flat_runtime_gp(space, n=20, seed=0):
    """Runtime surrogate for a constant runtime — ∂T ≈ 0 everywhere.

    Fit on log-runtime, matching what the generator hands the stepper.
    """
    rng = np.random.default_rng(seed)
    X = rng.random((n, space.dim))
    return GaussianProcess(space.cat_mask).fit(X, np.log(np.full(n, 100.0)))


class TestAGD:
    def test_paper_cadence_constant(self):
        assert N_AGD == 5

    def test_resource_descent_with_flat_runtime(self, space):
        # with ∂T≈0 and beta=0.5, the step must reduce the resource term
        gp = _flat_runtime_gp(space)
        start = space.clip(space.default_config() | {"spark.executor.instances": 100})
        stepper = AGDStepper(space, beta=0.5)
        nxt = stepper.step(start, gp)
        assert resource(nxt) <= resource(start)

    def test_returns_valid_config(self, space):
        gp = _flat_runtime_gp(space)
        nxt = AGDStepper(space, beta=0.5).step(space.default_config(), gp)
        u = space.to_unit(nxt)
        assert np.all((u >= 0) & (u <= 1))
        assert set(nxt) == set(space.names)

    def test_categoricals_unchanged(self, space):
        gp = _flat_runtime_gp(space)
        start = space.default_config()
        nxt = AGDStepper(space, beta=0.5).step(start, gp)
        for p in space.params:
            if p.kind == "cat":
                assert nxt[p.name] == start[p.name]

    def test_dims_restriction(self, space):
        gp = _flat_runtime_gp(space)
        start = space.clip(space.default_config() | {"spark.executor.instances": 100})
        i_inst = space.index_of("spark.executor.instances")
        i_mem = space.index_of("spark.executor.memory")
        nxt = AGDStepper(space, beta=0.5).step(start, gp, dims=[i_mem])
        assert nxt["spark.executor.instances"] == start["spark.executor.instances"]

    def test_step_norm_clipped(self, space, monkeypatch):
        gp = _flat_runtime_gp(space)
        monkeypatch.setattr(agd, "ETA", 1e9)  # absurd LR
        start = space.default_config()
        nxt = AGDStepper(space, beta=0.5).step(start, gp)
        du = space.to_unit(nxt) - space.to_unit(start)
        assert np.linalg.norm(du) <= MAX_STEP + 0.05  # + grid snap

    def test_beta_one_follows_runtime_gradient(self, space):
        # runtime that increases with instances → beta=1 step reduces them
        rng = np.random.default_rng(0)
        X = rng.random((40, space.dim))
        i = space.index_of("spark.executor.instances")
        gp = GaussianProcess(space.cat_mask).fit(X, np.log(100.0 + 50.0 * X[:, i]))
        start = space.clip(space.default_config() | {"spark.executor.instances": 100})
        nxt = AGDStepper(space, beta=1.0).step(start, gp)
        assert nxt["spark.executor.instances"] <= start["spark.executor.instances"]
