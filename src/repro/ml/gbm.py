"""Gradient-boosted regression trees (NumPy) — LightGBM stand-in.

The paper trains a LightGBM regressor as the meta-learning similarity
model :math:`M_{reg}: (v_1, v_2) \\mapsto d` (§5.1). LightGBM is not
installable offline, so this module provides least-squares gradient
boosting over the same CART trees used elsewhere in :mod:`repro.ml`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.tree import RegressionTree

LEARNING_RATE = 0.1    # shrinkage applied to every stage
MIN_SAMPLES_LEAF = 2   # rows per leaf of each stage's tree


@dataclass
class GradientBoostedRegressor:
    """L2 gradient boosting: each stage fits residuals with a shallow tree."""

    n_estimators: int = 100
    max_depth: int = 3
    seed: int = 0
    _init: float = field(default=0.0, init=False)
    _trees: list[RegressionTree] = field(default_factory=list, init=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        self._init = float(y.mean())
        pred = np.full(len(y), self._init)
        self._trees = []
        for _ in range(self.n_estimators):
            t = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=MIN_SAMPLES_LEAF,
                rng=np.random.default_rng(rng.integers(2**31)),
            )
            t.fit(X, y - pred)
            pred += LEARNING_RATE * t.predict(X)
            self._trees.append(t)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.full(len(X), self._init)
        for t in self._trees:
            out += LEARNING_RATE * t.predict(X)
        return out
