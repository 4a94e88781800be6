"""Gaussian-process surrogate with mixed kernels (Eq. 2 and Eq. 4).

The paper models objective/constraint responses with a GP whose kernel
mixes a Matérn-5/2 over numerical parameters, a Hamming kernel over
categorical parameters, and a squared-exponential over the (log) data
size appended as an extra input — this is how dynamic workloads are
supported online. Inputs live in the unit cube (see
:class:`repro.core.config_space.ConfigSpace`); targets are standardized
internally. Two hyperparameters, the shared numeric lengthscale and the
white-noise variance, are fit by grid-maximizing the exact log marginal
likelihood — observation counts are tiny online (≤ tens), so a coarse
grid is both robust and fast, and needs no scipy. The categorical decay
is not fitted: :class:`MixedKernel` fixes it from the number of
categorical dims.

The kernel has no amplitude and each factor is 1 at zero distance, so
the prior variance k(x, x) is 1 for every input. ``predict`` uses that
constant (Rasmussen & Williams, *GPML*, Alg. 2.1) rather than the
kernel of the query rows with themselves, so m query rows cost O(m·n)
kernel entries for n observations. ``fit`` computes the
lengthscale-independent kernel factors once and each lengthscale's
Gram matrix once for all noise values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_JITTER = 1e-8
NOISE_GRID = (1e-4, 1e-3, 1e-2, 1e-1)  # white-noise variances tried by fit
LS_GRID = (0.15, 0.3, 0.6, 1.2)        # numeric lengthscales, before dim scaling


def _matern52(d: np.ndarray) -> np.ndarray:
    """Matérn-5/2 of scaled distances ``d``."""
    s = np.sqrt(5.0) * d
    return (1.0 + s + s**2 / 3.0) * np.exp(-s)


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(
        (a**2).sum(1)[:, None] + (b**2).sum(1)[None, :] - 2.0 * a @ b.T, 0.0
    )


@dataclass
class MixedKernel:
    """Product kernel: Matérn52(numeric) × Hamming(categorical) × SE(size).

    ``cat_mask`` marks categorical dims of the config vector; the data
    size, if used, is the final column of the input matrix and is
    handled by the SE factor, which shares the numeric lengthscale.
    """

    cat_mask: np.ndarray
    has_datasize: bool = False
    lengthscale: float = field(default=0.5, init=False)
    cat_decay: float = field(init=False)

    def __post_init__(self) -> None:
        # pairwise Hamming distances grow with the categorical-dimension
        # count, so the decay scales with it or every config pair is "far"
        self.cat_decay = max(float(np.asarray(self.cat_mask).sum()) / 2.0, 0.5)

    def factors(self, A: np.ndarray, B: np.ndarray) -> tuple:
        """The lengthscale-independent parts of ``self(A, B)``: numeric
        distances, the Hamming factor (or None) and data-size squared
        distances (or None)."""
        d = len(self.cat_mask)
        num = ~self.cat_mask
        An, Bn = A[:, :d][:, num], B[:, :d][:, num]
        dist = np.sqrt(_pairwise_sq(An, Bn))
        ham = sq_ds = None
        if self.cat_mask.any():
            Ac, Bc = A[:, :d][:, self.cat_mask], B[:, :d][:, self.cat_mask]
            mism = (np.abs(Ac[:, None, :] - Bc[None, :, :]) > 1e-9).sum(axis=2)
            ham = np.exp(-mism / max(self.cat_decay, 1e-6))
        if self.has_datasize:
            sq_ds = _pairwise_sq(A[:, d:], B[:, d:])
        return dist, ham, sq_ds

    def gram(self, factors: tuple) -> np.ndarray:
        """The kernel matrix from :meth:`factors` at the current lengthscale."""
        dist, ham, sq_ds = factors
        ls = max(self.lengthscale, 1e-6)
        K = _matern52(dist / ls)
        if ham is not None:
            K = K * ham
        if sq_ds is not None:
            K = K * np.exp(-sq_ds / (2.0 * ls**2))
        return K

    def __call__(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self.gram(self.factors(A, B))


@dataclass
class GaussianProcess:
    """Zero-mean GP regression with the mixed kernel and white noise.

    ``fit`` selects hyperparameters on a small grid by log marginal
    likelihood; ``predict`` returns the posterior mean and standard
    deviation in the original target units.
    """

    cat_mask: np.ndarray
    has_datasize: bool = False
    _X: np.ndarray | None = field(default=None, init=False)
    _alpha: np.ndarray | None = field(default=None, init=False)
    _L: np.ndarray | None = field(default=None, init=False)
    _y_mean: float = field(default=0.0, init=False)
    _y_std: float = field(default=1.0, init=False)
    kernel: MixedKernel = field(init=False)
    noise: float = field(default=1e-3, init=False)

    def __post_init__(self) -> None:
        self.kernel = MixedKernel(np.asarray(self.cat_mask, bool), self.has_datasize)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std
        n = len(X)
        factors = self.kernel.factors(X, X)
        best = (-np.inf, None)
        # pairwise distances grow ~sqrt(d) in the unit cube, so the
        # candidate lengthscales must scale with dimensionality or a
        # high-d GP collapses to its prior mean between observations
        # (the Hamming factor's decay scales the same way, see MixedKernel)
        dim_scale = max(np.sqrt((~np.asarray(self.cat_mask, bool)).sum() / 2.0), 1.0)
        for ls in LS_GRID + tuple(g * dim_scale for g in LS_GRID):
            self.kernel.lengthscale = ls
            K_ls = self.kernel.gram(factors)
            for nz in NOISE_GRID:
                K = K_ls + (nz + _JITTER) * np.eye(n)
                try:
                    L = np.linalg.cholesky(K)
                except np.linalg.LinAlgError:
                    continue
                a = np.linalg.solve(L.T, np.linalg.solve(L, z))
                lml = (
                    -0.5 * z @ a
                    - np.log(np.diag(L)).sum()
                    - 0.5 * n * np.log(2 * np.pi)
                )
                if lml > best[0]:
                    best = (lml, (ls, nz, L, a))
        if best[1] is None:  # pathological: fall back to heavy noise
            ls, nz = 0.5, 1.0
            self.kernel.lengthscale = ls
            L = np.linalg.cholesky(self.kernel.gram(factors) + (nz + _JITTER) * np.eye(n))
            a = np.linalg.solve(L.T, np.linalg.solve(L, z))
            best = (0.0, (ls, nz, L, a))
        ls, nz, L, a = best[1]
        self.kernel.lengthscale = ls
        self.noise = nz
        self._X, self._L, self._alpha = X, L, a
        return self

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._X is None:
            raise RuntimeError("GP is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Ks = self.kernel(X, self._X)
        mu = Ks @ self._alpha
        v = np.linalg.solve(self._L, Ks.T)
        # the prior variance k(x, x) is 1 for every row (module docstring)
        var = np.clip(1.0 + self.noise - (v**2).sum(0), 1e-12, None)
        return (
            mu * self._y_std + self._y_mean,
            np.sqrt(var) * self._y_std,
        )
