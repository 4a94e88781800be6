"""CART regression tree (NumPy).

Greedy variance-reduction splitting on a dense float matrix. Categorical
features are expected integer-coded and are split ordinally — a standard
simplification (LightGBM's default pre-4.0 behaviour) that fANOVA's
interval-marginal machinery also assumes.

The tree can export its leaves as axis-aligned boxes over a bounding
domain (:meth:`RegressionTree.leaf_boxes`), which is what exact fANOVA
marginalization needs: the marginal prediction over any subset of
dimensions is a weighted sum of leaf values with weights equal to the
fraction of the marginalized dimensions' ranges each leaf box covers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_SAMPLES_SPLIT = 2  # a node with fewer rows becomes a leaf


@dataclass
class _Node:
    """Internal tree node; a leaf iff ``feature < 0``."""

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None


@dataclass
class LeafBox:
    """A leaf's value plus its axis-aligned box within the domain."""

    value: float
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class RegressionTree:
    """CART regression tree minimizing within-node variance.

    Parameters mirror sklearn's ``DecisionTreeRegressor`` where they
    share a name. ``max_features`` (int) subsamples candidate features
    per node — used by the random forest.
    """

    max_depth: int = 12
    min_samples_leaf: int = 1
    max_features: int | None = None
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    _root: _Node | None = field(default=None, init=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("X must be 2-D and aligned with non-empty y")
        self._root = self._build(X, y, depth=0)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = self._root
            while node.feature >= 0:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def leaf_boxes(self, lower: np.ndarray, upper: np.ndarray) -> list[LeafBox]:
        """All leaves as boxes clipped to the domain ``[lower, upper]``."""
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        boxes: list[LeafBox] = []

        def walk(node: _Node, lo: np.ndarray, hi: np.ndarray) -> None:
            if node.feature < 0:
                boxes.append(LeafBox(node.value, lo.copy(), hi.copy()))
                return
            f, t = node.feature, node.threshold
            if t >= lo[f]:  # left child region non-empty
                saved = hi[f]
                hi[f] = min(hi[f], t)
                walk(node.left, lo, hi)
                hi[f] = saved
            if t < hi[f]:  # right child region non-empty
                saved = lo[f]
                lo[f] = max(lo[f], t)
                walk(node.right, lo, hi)
                lo[f] = saved

        walk(self._root, lower.copy(), upper.copy())
        return boxes

    # -- internals ----------------------------------------------------

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if (
            depth >= self.max_depth
            or len(y) < MIN_SAMPLES_SPLIT
            or np.ptp(y) == 0.0
        ):
            return node
        feat, thr = self._best_split(X, y)
        if feat < 0:
            return node
        mask = X[:, feat] <= thr
        node.feature, node.threshold = feat, thr
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float]:
        n, d = X.shape
        feats = np.arange(d)
        if self.max_features is not None and self.max_features < d:
            feats = self.rng.choice(d, size=self.max_features, replace=False)
        best_gain, best = 0.0, (-1, 0.0)
        base_sse = float(((y - y.mean()) ** 2).sum())
        msl = self.min_samples_leaf
        for f in feats:
            order = np.argsort(X[:, f], kind="stable")
            xs, ys = X[order, f], y[order]
            # cumulative sums → SSE of every prefix/suffix split in O(n)
            csum, csq = np.cumsum(ys), np.cumsum(ys**2)
            tot, totsq = csum[-1], csq[-1]
            idx = np.arange(1, n)
            valid = (xs[1:] > xs[:-1]) & (idx >= msl) & (n - idx >= msl)
            if not valid.any():
                continue
            nl = idx[valid].astype(np.float64)
            sl, sql = csum[:-1][valid], csq[:-1][valid]
            sse = (sql - sl**2 / nl) + ((totsq - sql) - (tot - sl) ** 2 / (n - nl))
            k = int(np.argmin(sse))
            gain = base_sse - float(sse[k])
            if gain > best_gain + 1e-12:
                i = idx[valid][k]
                best_gain = gain
                best = (int(f), float((xs[i - 1] + xs[i]) / 2.0))
        return best
