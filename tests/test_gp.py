"""Unit tests for the mixed-kernel Gaussian process surrogate."""
import tracemalloc

import numpy as np
import pytest

from repro.core import gp as gp_mod
from repro.core.config_space import hibench_space
from repro.core.gp import _JITTER, LS_GRID, NOISE_GRID, GaussianProcess, MixedKernel, _matern52


def _numeric_mask(d):
    return np.zeros(d, dtype=bool)


def _hibench_rows(n, seed):
    """``n`` snapped hibench-space rows (categoricals included) with a
    datasize column appended, as the tuner feeds its GPs."""
    space = hibench_space()
    rng = np.random.default_rng(seed)
    return space, np.hstack([space.sample_unit(n, rng), rng.random((n, 1))])


class TestKernel:
    def test_self_similarity_is_one(self):
        k = MixedKernel(_numeric_mask(3))
        X = np.random.default_rng(0).random((5, 3))
        assert np.allclose(np.diag(k(X, X)), 1.0)

    def test_self_similarity_is_one_mixed(self):
        # GaussianProcess.predict takes the prior variance k(x, x) to be 1
        space, X = _hibench_rows(200, seed=0)
        assert space.cat_mask.any()
        k = MixedKernel(space.cat_mask, has_datasize=True)
        for ls in (0.15, 0.5, 3.0):
            k.lengthscale = ls
            assert np.allclose(np.diag(k(X, X)), 1.0, rtol=0, atol=1e-12)

    def test_symmetry(self):
        k = MixedKernel(_numeric_mask(3))
        X = np.random.default_rng(0).random((6, 3))
        K = k(X, X)
        assert np.allclose(K, K.T)

    def test_decay_with_distance(self):
        k = MixedKernel(_numeric_mask(1))
        a = np.array([[0.0]])
        vals = [k(a, np.array([[x]]))[0, 0] for x in (0.0, 0.3, 0.9)]
        assert vals[0] > vals[1] > vals[2]

    def test_psd(self):
        k = MixedKernel(_numeric_mask(4))
        X = np.random.default_rng(1).random((20, 4))
        eig = np.linalg.eigvalsh(k(X, X))
        assert eig.min() > -1e-8

    def test_hamming_on_categoricals(self):
        mask = np.array([False, True])
        k = MixedKernel(mask)
        a = np.array([[0.5, 0.0]])
        same = np.array([[0.5, 0.0]])
        diff = np.array([[0.5, 1.0]])
        assert k(a, same)[0, 0] > k(a, diff)[0, 0]

    def test_datasize_factor(self):
        k = MixedKernel(_numeric_mask(1), has_datasize=True)
        a = np.array([[0.5, 0.2]])
        near = np.array([[0.5, 0.25]])
        far = np.array([[0.5, 0.9]])
        assert k(a, near)[0, 0] > k(a, far)[0, 0]

    def test_matern52_at_zero(self):
        assert _matern52(np.array([0.0]))[0] == pytest.approx(1.0)


class TestGP:
    def _fit(self, f, n=25, d=2, seed=0, **kw):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        y = f(X)
        gp = GaussianProcess(_numeric_mask(d), **kw).fit(X, y)
        return gp, X, y

    def test_interpolates_training_points(self):
        gp, X, y = self._fit(lambda X: np.sin(3 * X[:, 0]) + X[:, 1])
        mu, _ = gp.predict(X)
        assert np.max(np.abs(mu - y)) < 0.2

    def test_generalizes_smooth_function(self):
        gp, _, _ = self._fit(lambda X: np.sin(3 * X[:, 0]) + X[:, 1], n=40)
        rng = np.random.default_rng(9)
        Xt = rng.random((30, 2))
        yt = np.sin(3 * Xt[:, 0]) + Xt[:, 1]
        mu, _ = gp.predict(Xt)
        assert np.mean((mu - yt) ** 2) < 0.1 * np.var(yt)

    def test_uncertainty_grows_off_data(self):
        rng = np.random.default_rng(0)
        X = rng.random((15, 2)) * 0.3  # data only in a corner
        y = X[:, 0]
        gp = GaussianProcess(_numeric_mask(2)).fit(X, y)
        _, sd_near = gp.predict(np.array([[0.15, 0.15]]))
        _, sd_far = gp.predict(np.array([[0.95, 0.95]]))
        assert sd_far[0] > sd_near[0]

    def test_constant_targets(self):
        gp, X, _ = self._fit(lambda X: np.full(len(X), 5.0))
        mu, sd = gp.predict(X)
        assert np.allclose(mu, 5.0, atol=1e-6)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess(_numeric_mask(2)).predict(np.zeros((1, 2)))

    def test_single_observation(self):
        gp = GaussianProcess(_numeric_mask(2)).fit(np.array([[0.5, 0.5]]), np.array([3.0]))
        mu, sd = gp.predict(np.array([[0.5, 0.5]]))
        assert np.isfinite(mu[0]) and np.isfinite(sd[0])

    def test_noise_robustness(self):
        rng = np.random.default_rng(3)
        X = rng.random((60, 1))
        y = 2 * X[:, 0] + rng.normal(0, 0.1, 60)
        gp = GaussianProcess(_numeric_mask(1)).fit(X, y)
        mu, _ = gp.predict(np.array([[0.25], [0.75]]))
        assert mu[1] - mu[0] == pytest.approx(1.0, abs=0.3)

    def test_datasize_input(self):
        rng = np.random.default_rng(4)
        X = np.concatenate([rng.random((30, 2)), rng.random((30, 1))], axis=1)
        y = X[:, 0] + 2.0 * X[:, 2]  # depends on the datasize column
        gp = GaussianProcess(_numeric_mask(2), has_datasize=True).fit(X, y)
        mu_small, _ = gp.predict(np.array([[0.5, 0.5, 0.1]]))
        mu_big, _ = gp.predict(np.array([[0.5, 0.5, 0.9]]))
        assert mu_big[0] > mu_small[0]

    def test_categorical_dims(self):
        mask = np.array([False, True])
        rng = np.random.default_rng(5)
        Xn = rng.random(40)
        Xc = rng.integers(0, 2, 40).astype(float)
        X = np.stack([Xn, Xc], axis=1)
        y = Xn + 3.0 * Xc
        gp = GaussianProcess(mask).fit(X, y)
        mu0, _ = gp.predict(np.array([[0.5, 0.0]]))
        mu1, _ = gp.predict(np.array([[0.5, 1.0]]))
        assert mu1[0] - mu0[0] > 1.0

    def test_std_nonnegative(self):
        gp, X, _ = self._fit(lambda X: X[:, 0])
        _, sd = gp.predict(np.random.default_rng(0).random((50, 2)))
        assert np.all(sd >= 0)


def _dense_predict(gp, X):
    """Posterior with the prior variance read off the full kernel(X, X)."""
    Ks = gp.kernel(X, gp._X)
    mu = Ks @ gp._alpha
    v = np.linalg.solve(gp._L, Ks.T)
    var = np.clip(gp.kernel(X, X).diagonal() + gp.noise - (v**2).sum(0), 1e-12, None)
    return mu * gp._y_std + gp._y_mean, np.sqrt(var) * gp._y_std


def _reference_kernel(k, A, B):
    """MixedKernel as one expression per factor, in the order the fit's
    factored Gram matrix must reproduce bit for bit."""
    d, cat, ls = len(k.cat_mask), k.cat_mask, max(k.lengthscale, 1e-6)
    K = _matern52(np.sqrt(gp_mod._pairwise_sq(A[:, :d][:, ~cat], B[:, :d][:, ~cat])) / ls)
    mism = (np.abs(A[:, :d][:, cat][:, None, :] - B[:, :d][:, cat][None, :, :]) > 1e-9).sum(axis=2)
    K = K * np.exp(-mism / max(k.cat_decay, 1e-6))
    return K * np.exp(-gp_mod._pairwise_sq(A[:, d:], B[:, d:]) / (2.0 * ls**2))


def _loop_fit(cat_mask, X, y):
    """Grid search that calls kernel(X, X) at every grid point; returns
    (lengthscale, noise, L, alpha) of the best log marginal likelihood."""
    k = MixedKernel(np.asarray(cat_mask, bool), has_datasize=True)
    z = (y - y.mean()) / (y.std() or 1.0)
    dim_scale = max(np.sqrt((~np.asarray(cat_mask, bool)).sum() / 2.0), 1.0)
    best = (-np.inf, None)
    for ls in LS_GRID + tuple(g * dim_scale for g in LS_GRID):
        for nz in NOISE_GRID:
            k.lengthscale = ls
            L = np.linalg.cholesky(k(X, X) + (nz + _JITTER) * np.eye(len(X)))
            a = np.linalg.solve(L.T, np.linalg.solve(L, z))
            lml = -0.5 * z @ a - np.log(np.diag(L)).sum() - 0.5 * len(X) * np.log(2 * np.pi)
            if lml > best[0]:
                best = (lml, (ls, nz, L, a))
    return best[1]


class TestReference:
    """The factored fit and the constant-prior predict against the
    straightforward versions they replace."""

    def test_kernel_matches_reference(self):
        space, X = _hibench_rows(40, seed=7)
        _, Xt = _hibench_rows(60, seed=8)
        k = MixedKernel(space.cat_mask, has_datasize=True)
        for ls in (0.15, 0.9, 2.4):
            k.lengthscale = ls
            assert np.array_equal(k(X, X), _reference_kernel(k, X, X))
            assert np.array_equal(k(Xt, X), _reference_kernel(k, Xt, X))

    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_fit_matches_loop(self, n):
        space, X = _hibench_rows(n, seed=n)
        y = np.sin(4 * X[:, 0]) + X[:, -1] + np.random.default_rng(n).normal(0, 0.1, n)
        gp = GaussianProcess(space.cat_mask, has_datasize=True).fit(X, y)
        ls, nz, L, a = _loop_fit(space.cat_mask, X, y)
        assert gp.kernel.lengthscale == ls and gp.noise == nz
        assert np.array_equal(gp._L, L) and np.array_equal(gp._alpha, a)

    def test_predict_matches_dense(self):
        space, X = _hibench_rows(25, seed=2)
        y = np.cos(3 * X[:, 1]) + 2.0 * X[:, -1]
        gp = GaussianProcess(space.cat_mask, has_datasize=True).fit(X, y)
        _, Xt = _hibench_rows(300, seed=3)
        mu, sd = gp.predict(Xt)
        mu_ref, sd_ref = _dense_predict(gp, Xt)
        assert np.array_equal(mu, mu_ref)
        assert np.allclose(sd, sd_ref, rtol=1e-12, atol=0)

    def test_fallback_uses_fitted_lengthscale(self, monkeypatch):
        space, X = _hibench_rows(12, seed=4)
        y = X[:, 0] + X[:, -1]
        real, calls = np.linalg.cholesky, []

        def failing(K):  # every grid point fails; the fallback succeeds
            calls.append(1)
            if len(calls) <= len(LS_GRID) * 2 * len(NOISE_GRID):
                raise np.linalg.LinAlgError("forced")
            return real(K)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        gp = GaussianProcess(space.cat_mask, has_datasize=True).fit(X, y)
        monkeypatch.undo()
        assert len(calls) == len(LS_GRID) * 2 * len(NOISE_GRID) + 1
        assert gp.kernel.lengthscale == 0.5 and gp.noise == 1.0
        K = gp.kernel(X, X) + (gp.noise + _JITTER) * np.eye(len(X))
        assert np.array_equal(gp._L, np.linalg.cholesky(K))


def test_predict_memory_is_linear_in_rows():
    # the dense prior kernel(X, X) over 4000 hibench rows would allocate
    # 4000 x 4000 x 9 mismatch floats, more than 1 GB
    space, X = _hibench_rows(30, seed=5)
    gp = GaussianProcess(space.cat_mask, has_datasize=True).fit(X, X[:, 0])
    _, Xt = _hibench_rows(4000, seed=6)
    tracemalloc.start()
    try:
        gp.predict(Xt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
