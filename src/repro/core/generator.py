"""Efficient & safe configuration generator (Algorithm 2, §4).

Per iteration: fit surrogates for the objective and the runtime
constraint on the run history; every ``N_AGD``-th iteration produce the
next configuration by approximate gradient descent from the incumbent;
otherwise update the adaptive sub-space, intersect it with the safe
region of every constraint (GP upper bound, Eq. 8; white-box resource
constraints filtered analytically), and maximize EIC (Eq. 6) over the
surviving candidates.

Candidate pools are ``(n, d)`` arrays of snapped unit rows. :func:`propose`
scores a pool for this generator and for the BO baselines (CherryPick,
Tuneful, LOCAT), which use it with fewer pieces: EIC without a safe
region, or plain EI.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.acquisition import eic, safe_mask
from repro.core.agd import AGDStepper, N_AGD
from repro.core.bo import RunHistory, append_datasize, datasize_feature
from repro.core.config_space import ConfigSpace
from repro.core.gp import GaussianProcess
from repro.core.objective import TuningProblem, resource
from repro.core.subspace import SubspaceManager

GAMMA = 0.5          # safe-region bound multiplier (Eq. 8)
N_CANDIDATES = 1200  # pool size per EIC iteration; 70% random, 30% local


def fit_surrogates(history: RunHistory, with_ds: bool, meta_factory=None):
    """Objective surrogate and log-runtime GP fitted on ``history``.

    The objective surrogate is a GP on the penalized objectives, or the
    Eq. 12 ensemble ``meta_factory`` builds around that GP (see core.meta).
    """
    X = history.X_unit(with_datasize=with_ds)
    y = history.penalized_objectives()
    gp_f = GaussianProcess(history.space.cat_mask, has_datasize=with_ds)
    if meta_factory is not None:
        gp_f = meta_factory(X, y, gp_f)
    else:
        gp_f.fit(X, y)
    gp_t = GaussianProcess(history.space.cat_mask, has_datasize=with_ds)
    # model log-runtime: positive, multiplicative noise, long tails
    gp_t.fit(X, np.log(np.maximum(history.runtimes(), 1e-9)))
    return gp_f, gp_t


def propose(
    U: np.ndarray,
    gp_f,
    y_best: float,
    runtime: tuple[GaussianProcess, list[float]] | None = None,
    gamma: float | None = None,
) -> tuple[int, float]:
    """Index of the pool row to run next, and its acquisition value.

    ``U`` holds the surrogates' input rows. With ``runtime = (gp_t,
    thresholds)`` — a log-runtime GP and runtime limits in seconds — EI
    is weighted by the probability of meeting each limit (EIC, Eq. 6);
    without it this is plain EI (Eq. 3). With ``gamma`` as well, only
    rows inside the safe region (Eq. 8) compete; when no row is safe the
    one with the lowest upper bound ``μ_t + γσ_t`` is returned with an
    infinite acquisition value.
    """
    posteriors, safe = [], None
    if runtime is not None and runtime[1]:
        gp_t, thresholds = runtime
        mu_t, sd_t = gp_t.predict(U)
        posteriors = [(mu_t, sd_t, np.log(max(thr, 1e-9))) for thr in thresholds]
        if gamma is not None:
            safe = np.logical_and.reduce([safe_mask(*post, gamma) for post in posteriors])
            if not safe.any():
                # no provably-safe candidate: pick the most plausibly safe one
                # (minimal constraint upper bound), as in SafeOpt-style search
                return int(np.argmin(mu_t + gamma * sd_t)), float("inf")
    mu_f, sd_f = gp_f.predict(U)
    acq = eic(mu_f, sd_f, y_best, posteriors)
    if safe is not None:
        acq = np.where(safe, acq, -np.inf)
    idx = int(np.argmax(acq))
    return idx, float(acq[idx]) if np.isfinite(acq[idx]) else 0.0


@dataclass
class ConfigGenerator:
    """Suggests the next configuration for one tuning task."""

    space: ConfigSpace
    problem: TuningProblem
    seed: int = 0
    use_subspace: bool = True
    use_agd: bool = True
    use_safe: bool = True
    meta_surrogate_factory: object | None = None  # see core.meta
    subspace: SubspaceManager = field(init=False)
    last_ei: float = field(default=float("inf"), init=False)  # inspected by the stopping criterion
    gp_f: object | None = field(default=None, init=False)  # last fitted objective surrogate
    _rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self.subspace = SubspaceManager(self.space, seed=self.seed)
        self._rng = np.random.default_rng(self.seed)

    def _pool(self, history: RunHistory) -> np.ndarray:
        """Random + local candidate rows inside the current sub-space,
        minus observed configs and white-box resource violations."""
        base = history.best().unit
        dims = self.subspace.current_dims() if self.use_subspace else list(range(self.space.dim))
        n_rand = int(N_CANDIDATES * 0.7)
        rand = self.space.sample_unit(n_rand, self._rng, subspace=dims, base=base)
        # local Gaussian perturbations of the incumbent (exploitation pool)
        local = np.tile(base, (N_CANDIDATES - n_rand, 1))
        local[:, dims] = np.clip(
            local[:, dims] + self._rng.normal(0.0, 0.12, (len(local), len(dims))), 0.0, 1.0
        )
        U = np.concatenate([rand, self.space.snap(local)])
        seen = (U[:, None, :] == history.X_unit()[None, :, :]).all(axis=2).any(axis=1)
        if not seen.all():
            U = U[~seen]
        for limit in self.problem.thresholds("resource") if self.use_safe else []:
            ok = resource(self.space.columns(U)) <= limit
            if ok.any():
                U = U[ok]
        return U

    # -- Algorithm 2 ---------------------------------------------------

    def suggest(self, history: RunHistory) -> dict:
        if len(history) == 0:
            return self.space.default_config()
        self.gp_f, gp_t = fit_surrogates(history, with_ds=True, meta_factory=self.meta_surrogate_factory)
        it = len(history) + 1
        best = history.best()

        ds_feat = datasize_feature(history.observations[-1].result.datasize_mb)
        # AGD needs "observations sufficient to approximate f" (§4.3):
        # gate it on a minimum history besides the every-N_AGD cadence
        if self.use_agd and it % N_AGD == 0 and it >= 2 * N_AGD:
            stepper = AGDStepper(self.space, self.problem.beta)
            dims = self.subspace.current_dims() if self.use_subspace else None
            return stepper.step(
                best.config, gp_t,
                datasize_feature=ds_feat,
                dims=dims,
            )

        if self.use_subspace:
            self.subspace.update_importance(
                history.X_unit(), history.penalized_objectives()
            )
        U = self._pool(history)
        # use_safe=False is the paper's "vanilla BO" ablation: plain EI
        # with no constraint probability and no safe region
        idx, self.last_ei = propose(
            append_datasize(U, ds_feat),
            self.gp_f, best.objective,
            runtime=(gp_t, self.problem.thresholds("runtime")) if self.use_safe else None,
            gamma=GAMMA if self.use_safe else None,
        )
        return self.space.from_unit(U[idx])
