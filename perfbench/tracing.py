"""In-memory span tracer for the benchmark's traced run.

The tracer records one span per call into a layer of the ``repro``
package: the layer's public functions and methods are wrapped where
they are looked up (a class attribute, or the module global a caller
imported by name), so no file of the program changes. Spans are kept
in flat arrays while the run lasts — ``(name, parent, start, end)`` —
and summarised or written out afterwards. A span's self time is its
duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.

``Tracer.installed()`` restores every wrapped attribute on exit, and
each wrapper carries ``WRAPPED_MARK`` so tests can prove none is left.
"""
from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter
from collections.abc import Callable, Iterator

import numpy as np

WRAPPED_MARK = "__perfbench_wrapped__"


def _rows(args, result) -> dict[str, int]:
    """Row count of the matrix passed after ``self``."""
    return {"rows": len(np.atleast_2d(args[1]))}


def _safe_counts(args, result) -> dict[str, int]:
    """Candidates scored by ``safe_mask`` and how many it kept."""
    return {"scored": int(np.size(result)), "safe": int(np.sum(result))}


def targets() -> list[tuple[object, str, str, Callable | None]]:
    """``(owner, attribute, span name, counter)`` for every traced call.

    A function imported by name into another module is wrapped in that
    module too, because that is where its caller looks it up.
    """
    from repro.baselines import cherrypick, dac, rfhoc, tuneful
    from repro.core import generator, meta, subspace
    from repro.core.agd import AGDStepper
    from repro.core.config_space import ConfigSpace
    from repro.core.gp import GaussianProcess
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.gbm import GradientBoostedRegressor
    from repro.ml.tree import RegressionTree
    from repro.simcluster.simulator import ClusterSimulator

    return [
        (GaussianProcess, "fit", "gp.fit", None),
        (GaussianProcess, "predict", "gp.predict", _rows),
        (ConfigSpace, "sample_random", "space.sample_random", None),
        (ConfigSpace, "from_unit", "space.from_unit", None),
        (ConfigSpace, "to_unit", "space.to_unit", None),
        (generator.ConfigGenerator, "suggest", "generator.suggest", None),
        (generator, "eic", "acq.eic", None),
        (cherrypick, "eic", "acq.eic", None),
        (generator, "safe_mask", "acq.safe_mask", _safe_counts),
        (subspace.SubspaceManager, "update_importance", "subspace.update", None),
        (RandomForestRegressor, "fit", "forest.fit", None),
        (RandomForestRegressor, "predict", "forest.predict", None),
        (subspace, "fanova_importance", "fanova", None),
        (tuneful, "fanova_importance", "fanova", None),
        (AGDStepper, "step", "agd.step", None),
        (RegressionTree, "fit", "tree.fit", None),
        (RegressionTree, "predict", "tree.predict", _rows),
        (GradientBoostedRegressor, "fit", "gbm.fit", None),
        (GradientBoostedRegressor, "predict", "gbm.predict", None),
        (dac, "ga_minimize", "ga.minimize", None),
        (rfhoc, "ga_minimize", "ga.minimize", None),
        (meta.MetaLearner, "fit", "meta.fit", None),
        (meta, "surrogate_distance", "meta.surrogate_distance", None),
        (meta.MetaEnsembleSurrogate, "predict", "meta.ensemble.predict", None),
        (ClusterSimulator, "run", "sim.run", None),
    ]


class Tracer:
    """Spans of one traced run, in memory until :meth:`save`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (session, suggest, ...)."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn: Callable, name: str, counter: Callable | None = None) -> Callable:
        """``fn`` recording one ``name`` span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.counts[f"{name}.{key}"] += n
            return result

        setattr(traced, WRAPPED_MARK, True)
        return traced

    def mark(self) -> int:
        """Position of the next span, for :meth:`names_since`."""
        return len(self.start)

    def names_since(self, mark: int) -> set[str]:
        """Names of the spans opened since ``mark``."""
        return {self.names[k] for k in set(self.name_id[mark:])}

    # -- installing wrappers -------------------------------------------

    def patch(self, owner: object, attr: str, name: str, counter: Callable | None = None) -> None:
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r} itself")
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, counter))

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every :func:`targets` entry; restore them all on exit."""
        try:
            for owner, attr, name, counter in targets():
                self.patch(owner, attr, name, counter)
            yield self
        finally:
            self.unpatch_all()

    # -- analysis ------------------------------------------------------

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(name id, parent index, duration)`` per span, as copies."""
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.end) - np.array(self.start),
        )

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        _, parent, dur = self.arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s``."""
        nid, _, dur = self.arrays()
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        self_s = np.bincount(nid, weights=self.self_times(), minlength=n)
        return {
            name: {"calls": int(calls[k]), "s": float(total[k]), "self_s": float(self_s[k])}
            for k, name in enumerate(self.names)
        }

    def count_within(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        anc, target = self._ids[ancestor], self._ids[name]
        inside = [False] * len(self.name_id)
        n = 0
        # parents precede their children, so one forward pass suffices
        for i, (nid, p) in enumerate(zip(self.name_id, self.parent)):
            inside[i] = p >= 0 and (self.name_id[p] == anc or inside[p])
            n += inside[i] and nid == target
        return n

    def parents_with_child(self, name: str, child: str) -> int:
        """Number of ``name`` spans with at least one direct ``child`` span."""
        if name not in self._ids or child not in self._ids:
            return 0
        nid, parent, _ = self.arrays()
        kids = parent[(nid == self._ids[child]) & (parent >= 0)]
        return int(np.sum(nid[np.unique(kids)] == self._ids[name]))

    def save(self, path) -> None:
        """Write every span to ``path`` (``.npz``)."""
        nid, parent, _ = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=nid,
            parent=parent,
            start=np.array(self.start),
            end=np.array(self.end),
        )
