"""Bagged random forest regressor (NumPy).

Used by (a) the fANOVA parameter-importance module of the paper's
sub-space generator, and (b) the RFHOC / DAC baselines, both of which
build tree-ensemble performance models.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.tree import RegressionTree


@dataclass
class RandomForestRegressor:
    """Random forest: bootstrap rows, subsample features per split-node.

    ``max_features=None`` defaults to ``max(1, d // 3)`` (the classical
    regression-forest heuristic) at fit time.
    """

    n_estimators: int = 30
    max_depth: int = 12
    max_features: int | None = None
    seed: int = 0
    trees: list[RegressionTree] = field(default_factory=list, init=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        mf = self.max_features or max(1, d // 3)
        rng = np.random.default_rng(self.seed)
        self.trees = []
        for _ in range(self.n_estimators):
            idx = rng.integers(0, n, size=n)
            t = RegressionTree(
                max_depth=self.max_depth,
                max_features=mf,
                rng=np.random.default_rng(rng.integers(2**31)),
            )
            t.fit(X[idx], y[idx])
            self.trees.append(t)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise RuntimeError("forest is not fitted")
        return np.mean([t.predict(X) for t in self.trees], axis=0)
