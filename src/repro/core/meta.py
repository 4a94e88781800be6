"""Meta-learning based acceleration (§5).

Task similarity: two tasks are close when their surrogates *rank*
configurations the same way — distance is the scaled negative
Kendall-tau discordance of the tasks' surrogate predictions on shared
random configurations, ``Dist = (1 − τ)/2 ∈ [0, 1]``. A GBM regressor
(LightGBM in the paper; :class:`repro.ml.gbm.GradientBoostedRegressor`
here) learns to predict that distance from the 75-dim event-log
meta-features of the two tasks, so similarity is available for a *new*
task before any surrogate exists.

The learned similarity powers (§5.2):
- **warm-starting** — the best configurations of the top-3 most similar
  source tasks seed the initial design;
- **ensemble surrogate** — ``μ_meta = Σ wᵢμᵢ``, ``σ²_meta = Σ wᵢ²σᵢ²``
  (Eq. 12) over the source surrogates plus the current-task GP, with
  the current-task weight set by a cross-validation (leave-one-out rank
  agreement) strategy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bo import RunHistory
from repro.core.config_space import ConfigSpace
from repro.core.gp import GaussianProcess
from repro.ml.gbm import GradientBoostedRegressor

TOP_K_SOURCES = 3      # similar source tasks in the ensemble (paper value)
N_SHARED_CONFIGS = 128  # random configs both surrogates rank in Dist


def kendall_tau(a: np.ndarray, b: np.ndarray) -> float:
    """Kendall rank correlation of two score vectors (O(n²), ties → 0)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("need two aligned vectors of length >= 2")
    da = np.sign(a[:, None] - a[None, :])
    db = np.sign(b[:, None] - b[None, :])
    iu = np.triu_indices(len(a), k=1)
    prod = da[iu] * db[iu]
    n_pairs = len(prod)
    return float(prod.sum() / n_pairs) if n_pairs else 0.0


def rank_distance(tau: float) -> float:
    """Dist = (1 − τ)/2, scaled to [0, 1] (§5.1)."""
    return (1.0 - tau) / 2.0


@dataclass
class SourceTask:
    """A previous tuning task stored in the data repository."""

    name: str
    meta: np.ndarray                    # 75-dim event-log meta-features
    history: RunHistory
    surrogate: GaussianProcess = field(init=False)

    def __post_init__(self) -> None:
        self.surrogate = GaussianProcess(self.history.space.cat_mask)
        y = self.history.penalized_objectives()
        # standardize per-task so cross-task predictions are comparable
        mu, sd = float(y.mean()), float(y.std()) or 1.0
        self.surrogate.fit(self.history.X_unit(), (y - mu) / sd)

    def best_config(self) -> dict:
        """Lowest-objective config, feasible ones first."""
        return min(self.history.observations, key=lambda o: (not o.feasible, o.objective)).config


def surrogate_distance(
    t1: SourceTask, t2: SourceTask, space: ConfigSpace, *, seed: int = 0
) -> float:
    """Dist(Mⁱ, Mʲ) via Kendall-tau on random shared configs (§5.1)."""
    U = space.sample_unit(N_SHARED_CONFIGS, np.random.default_rng(seed))
    p1, _ = t1.surrogate.predict(U)
    p2, _ = t2.surrogate.predict(U)
    return rank_distance(kendall_tau(p1, p2))


def _pair_features(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Symmetric pair encoding for the similarity regressor."""
    return np.concatenate([np.abs(v1 - v2), (v1 + v2) / 2.0])


@dataclass
class MetaLearner:
    """The meta-knowledge learner: similarity model + transfer methods."""

    space: ConfigSpace
    seed: int = 0
    tasks: list[SourceTask] = field(default_factory=list)
    model: GradientBoostedRegressor | None = None

    def fit(self, tasks: list[SourceTask]) -> "MetaLearner":
        """Train M_reg on all source-task pairs."""
        self.tasks = list(tasks)
        X, y = [], []
        for i in range(len(tasks)):
            for j in range(i + 1, len(tasks)):
                d = surrogate_distance(tasks[i], tasks[j], self.space, seed=self.seed)
                for a, b in ((i, j), (j, i)):
                    X.append(_pair_features(tasks[a].meta, tasks[b].meta))
                    y.append(d)
        if len(y) < 2:
            raise ValueError("need at least two source tasks to learn similarity")
        self.model = GradientBoostedRegressor(
            n_estimators=80, max_depth=3, seed=self.seed
        ).fit(np.array(X), np.array(y))
        return self

    def predict_distance(self, v1: np.ndarray, v2: np.ndarray) -> float:
        if self.model is None:
            raise RuntimeError("meta-learner is not fitted")
        d = float(self.model.predict(_pair_features(v1, v2)[None, :])[0])
        return float(np.clip(d, 0.0, 1.0))

    def rank_sources(self, target_meta: np.ndarray) -> list[tuple[SourceTask, float]]:
        """Source tasks ordered by distance to the target.

        The score blends the learned regressor with a normalized
        Euclidean term on the (already log-compressed) meta-features:
        with only a handful of source tasks the Kendall-tau targets are
        nearly uniform, so the regressor alone has little signal — the
        feature-distance term regularizes the ranking toward tasks of
        the same computational shape. (The paper's objection to raw
        Euclidean distance is heterogeneous feature scales; our
        features are scale-normalized at extraction.)
        """
        def score(t: SourceTask) -> float:
            d_learned = self.predict_distance(t.meta, target_meta)
            denom = np.linalg.norm(t.meta) + np.linalg.norm(target_meta) + 1e-12
            d_feat = float(np.linalg.norm(t.meta - target_meta) / denom)
            return d_learned + d_feat

        scored = [(t, score(t)) for t in self.tasks]
        return sorted(scored, key=lambda p: p[1])

    def warm_start_configs(self, target_meta: np.ndarray, *, k: int = 3) -> list[dict]:
        """Initial design: best config of each of the top-k similar tasks."""
        return [t.best_config() for t, _ in self.rank_sources(target_meta)[:k]]

    def ensemble_factory(self, target_meta: np.ndarray):
        """A factory for :class:`ConfigGenerator.meta_surrogate_factory`."""
        sources = self.rank_sources(target_meta)[:TOP_K_SOURCES]

        def build(X: np.ndarray, y: np.ndarray, gp: GaussianProcess):
            gp.fit(X, y)
            return MetaEnsembleSurrogate(
                sources=[(t, max(1.0 - d, 0.0)) for t, d in sources],
                current=gp,
                config_dim=self.space.dim,
                y_scale=(float(y.mean()), float(y.std()) or 1.0),
                current_weight=cv_weight(gp, X, y),
            )

        return build


def cv_weight(gp: GaussianProcess, X: np.ndarray, y: np.ndarray) -> float:
    """Cross-validation weight for the current-task GP fitted on ``X``,
    ``y``: rank agreement between its predictions and the observed
    targets. With scarce data the current model gets little say and the
    source ensemble dominates — exactly the paper's cold-start fix."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(X) < 4:
        return 0.3
    mu, _ = gp.predict(X)
    if np.ptp(y) == 0 or np.ptp(mu) == 0:
        return 0.3
    tau = kendall_tau(mu, y)
    return float(np.clip((1.0 + tau) / 2.0, 0.1, 1.0))


@dataclass
class MetaEnsembleSurrogate:
    """Weighted GP ensemble, Eq. 12. Source surrogates predict in their
    standardized units; predictions are mapped into the current task's
    objective scale before mixing. ``current_weight`` is the current-task
    GP's weight (see :func:`cv_weight`)."""

    sources: list[tuple[SourceTask, float]]
    current: GaussianProcess
    config_dim: int
    y_scale: tuple[float, float]
    current_weight: float

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(X)
        mu_c, sd_c = self.current.predict(X)
        mean, sd = self.y_scale
        mus, sigmas, weights = [mu_c], [sd_c], [self.current_weight]
        Xc = X[:, : self.config_dim]
        for task, w in self.sources:
            if w <= 0:
                continue
            m, s = task.surrogate.predict(Xc)
            mus.append(m * sd + mean)   # de-standardize into current units
            sigmas.append(s * sd)
            weights.append(w)
        w = np.array(weights)
        w = w / w.sum()
        mu = sum(wi * mi for wi, mi in zip(w, mus))
        var = sum((wi**2) * (si**2) for wi, si in zip(w, sigmas))
        return mu, np.sqrt(np.maximum(var, 1e-18))
