"""The benchmark's three closed-loop tuning workloads.

A *session* is one tuner on one task for ``budget`` iterations of
``suggest()`` → ``SimEvaluator.evaluate`` → ``observe()``, each call
waiting for the previous one, as a periodic job does. A *round* is the
workload's fixed list of sessions, which ``sessions`` yields one by one;
round ``r`` of workload seed ``s`` seeds its tuners and evaluators from
``(s, r, k)``, so the same seed always produces the same inputs. Round 0
is the reference round: its trajectory digest and quality figures are
what the checks compare. The task lists are part of each workload, not
settings; only ``budget`` (and ``OnlineHiBench.tasks``) can be shrunk,
which keeps the benchmark's own tests fast.

Workloads (why each was chosen is in README.md):

- ``online-hibench``  — ``OnlineTuner`` on terasort and kmeans;
- ``baselines-hibench`` — DAC, RFHOC, CherryPick, Tuneful and LOCAT on
  terasort;
- ``meta-warmstart`` — ``MetaLearner.fit`` on six Sobol-designed source
  tasks, then warm-started ``OnlineTuner`` on kmeans and terasort.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import sys
import time
import traceback
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.baselines import (
    CherryPickTuner, DACTuner, LOCATTuner, RFHOCTuner, TunefulTuner,
)
from repro.core.bo import RunHistory
from repro.core.config_space import ConfigSpace, hibench_space
from repro.core.controller import OnlineTuner
from repro.core.meta import MetaLearner, SourceTask
from repro.core.objective import ExecResult, TuningProblem, objective
from repro.experiments.harness import SimEvaluator, default_constraints
from repro.simcluster import ClusterSimulator, get_profile
from repro.simcluster.eventlog import meta_features
from repro.simcluster.profile import WorkloadProfile

BETA = 0.5            # execution-cost objective (paper Fig. 5)
REFERENCE_SEED = 123  # the seed default_constraints runs the reference with
SOURCE_DESIGN = 25    # Sobol points per meta-learning source task


#: streams of derived seeds, so no two uses share one
SESSION, LEARNER = range(2)


def sub_seed(seed: int, *path: int) -> int:
    """A 31-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence((seed, *path)).generate_state(1)[0] >> 1)


@dataclass
class Task:
    """One tuning task: a workload profile under the §6.3 problem."""

    name: str
    profile: WorkloadProfile
    problem: TuningProblem
    reference_objective: float  # objective of the default config


def make_task(space: ConfigSpace, sim: ClusterSimulator, name: str) -> Task:
    """β=0.5 with 2× the default config's runtime and resource as limits."""
    profile = get_profile(name)
    default = space.default_config()
    problem = TuningProblem(BETA, default_constraints(space, profile, sim, default))
    ref = sim.run(profile, default, seed=REFERENCE_SEED)
    return Task(name, profile, problem, objective(ref.runtime_s, default, BETA))


# -- one session ------------------------------------------------------


def warmup_length(tuner) -> int:
    """Suggests a tuner serves from its initial design, not its model."""
    return max(getattr(tuner, a, 0) for a in ("n_init", "n_warmup", "sa_rounds"))


def config_on_grid(space: ConfigSpace, config: dict) -> bool:
    return list(config) == space.names and space.clip(config) == config


def result_finite(result: ExecResult) -> bool:
    return all(
        math.isfinite(v)
        for v in (result.runtime_s, result.mem_gbh, result.cpu_coreh, result.datasize_mb)
    )


@dataclass
class SessionResult:
    """What one session produced and how long its suggests took."""

    task: str
    method: str
    configs: list[dict] = field(default_factory=list)
    model_suggest_s: list[float] = field(default_factory=list)  # model-based only
    attempted: int = 0
    tuning: int = 0     # iterations not served from the §3.3 stopped state
    failed: int = 0
    feasible: int = 0
    best_cost_reduction_pct: float = 0.0
    phases: dict[str, int] = field(default_factory=dict)


def run_session(tuner, task: Task, evaluator: SimEvaluator, budget: int, tracer=None) -> SessionResult:
    """Drive one tuner through ``budget`` iterations and check each output.

    An iteration fails when ``suggest`` raises (the session then ends),
    when the config is off the space's grid, or when the execution
    result is not finite. With a ``tracer`` the session's calls are
    recorded as spans and OnlineTuner suggests are counted by phase.
    """
    space = tuner.space
    out = SessionResult(task.name, tuner.name)
    n_warm = warmup_length(tuner)
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    with span("session"):
        for it in range(budget):
            out.attempted += 1
            stopped = bool(getattr(tuner, "stopped", False))
            model_based = it >= n_warm and not stopped
            out.tuning += not stopped
            mark = tracer.mark() if tracer is not None else None
            try:
                with span("session.suggest"):
                    t0 = time.perf_counter()
                    config = tuner.suggest()
                    dt = time.perf_counter() - t0
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.failed += 1
                break
            if model_based:
                out.model_suggest_s.append(dt)
            if mark is not None and isinstance(tuner, OnlineTuner):
                phase = _phase(it < n_warm, stopped, tracer.names_since(mark))
                out.phases[phase] = out.phases.get(phase, 0) + 1
            out.configs.append(config)
            with span("session.evaluate"):
                result = evaluator.evaluate(config, it)
            with span("session.observe"):
                tuner.observe(config, result)
            if not (config_on_grid(space, config) and result_finite(result)):
                out.failed += 1
    out.feasible = sum(o.feasible for o in tuner.history.observations)
    best = tuner.history.best()
    if best is not None and best.feasible:
        ref = task.reference_objective
        out.best_cost_reduction_pct = 100.0 * (ref - best.objective) / ref
    return out


def _phase(init: bool, stopped: bool, ran: set[str]) -> str:
    """Which §3 phase served a suggest, from state and the spans it opened."""
    if init:
        return "init"
    if stopped:
        return "stopped"
    if "agd.step" in ran:
        return "agd"
    if "acq.eic" in ran:
        return "eic"
    return "safe_fallback"


def digest(sessions: list[SessionResult]) -> str:
    """SHA-256 over every suggested config, in order."""
    h = hashlib.sha256()
    for s in sessions:
        h.update(f"{s.task}/{s.method}\n".encode())
        for c in s.configs:
            h.update(repr(sorted(c.items())).encode())
    return h.hexdigest()


# -- workloads --------------------------------------------------------


def _environment() -> tuple[ConfigSpace, ClusterSimulator]:
    return hibench_space(), ClusterSimulator(capacity_cores=384, capacity_mem_gb=2048)


@dataclass
class OnlineHiBench:
    """The paper's tuner on its hot path (no meta-learning)."""

    name: ClassVar[str] = "online-hibench"
    tasks: tuple[str, ...] = ("terasort", "kmeans")
    budget: int = 30

    def setup(self) -> dict:
        space, sim = _environment()
        return {"space": space, "sim": sim, "tasks": [make_task(space, sim, t) for t in self.tasks]}

    def sessions(self, env: dict, seed: int, r: int, tracer=None) -> Iterator[SessionResult]:
        space, sim = env["space"], env["sim"]
        for k, task in enumerate(env["tasks"]):
            s = sub_seed(seed, SESSION, r, k)
            tuner = OnlineTuner(
                space, task.problem, seed=s, use_meta=False,
                reference_config=space.default_config(),
            )
            yield run_session(tuner, task, SimEvaluator(task.profile, sim, seed=s), self.budget, tracer)


@dataclass
class BaselinesHiBench:
    """The five model-based baselines on terasort's OOM cliff."""

    name: ClassVar[str] = "baselines-hibench"
    task: ClassVar[str] = "terasort"
    methods: ClassVar[tuple[type, ...]] = (DACTuner, RFHOCTuner, CherryPickTuner, TunefulTuner, LOCATTuner)
    budget: int = 30

    def setup(self) -> dict:
        space, sim = _environment()
        return {"space": space, "sim": sim, "task": make_task(space, sim, self.task)}

    def sessions(self, env: dict, seed: int, r: int, tracer=None) -> Iterator[SessionResult]:
        space, sim, task = env["space"], env["sim"], env["task"]
        for k, method in enumerate(self.methods):
            s = sub_seed(seed, SESSION, r, k)
            tuner = method(space, task.problem, seed=s)
            yield run_session(tuner, task, SimEvaluator(task.profile, sim, seed=s), self.budget, tracer)


@dataclass
class MetaWarmstart:
    """Similarity learning plus warm-started, ensemble-surrogate tuning."""

    name: ClassVar[str] = "meta-warmstart"
    sources: ClassVar[tuple[str, ...]] = ("sort", "wordcount", "pagerank", "svd", "lr", "bayes")
    targets: ClassVar[tuple[str, ...]] = ("kmeans", "terasort")
    budget: int = 30

    def setup(self) -> dict:
        """The data repository: each source history is a Sobol design run
        on the simulator, so no change to the tuner can change the meta
        layer's inputs. Like the task list, the repository is part of the
        workload, not of its seed: which repository the tuner warm-starts
        from decides how often the §3.3 stop fires, and with it how much
        work a run does, so a seeded repository would swamp every timing
        with that choice; the seed varies the tuning sessions only."""
        space, sim = _environment()
        sources = []
        for k, name in enumerate(self.sources):
            task = make_task(space, sim, name)
            evaluator = SimEvaluator(task.profile, sim, seed=k)
            history = RunHistory(space, task.problem)
            for i, config in enumerate(space.sample_sobol(SOURCE_DESIGN, seed=k)):
                history.add(config, evaluator.evaluate(config, i))
            sources.append(SourceTask(name, meta_features(history.observations[0].result), history))
        targets = []
        for name in self.targets:
            task = make_task(space, sim, name)
            probe = sim.run(task.profile, space.default_config(), seed=REFERENCE_SEED)
            targets.append((task, meta_features(probe)))
        return {"space": space, "sim": sim, "sources": sources, "targets": targets}

    def sessions(self, env: dict, seed: int, r: int, tracer=None) -> Iterator[SessionResult]:
        """The first session's time includes ``MetaLearner.fit``."""
        space, sim = env["space"], env["sim"]
        learner = MetaLearner(space, seed=sub_seed(seed, LEARNER, r)).fit(env["sources"])
        for k, (task, target_meta) in enumerate(env["targets"]):
            s = sub_seed(seed, SESSION, r, k)
            tuner = OnlineTuner(space, task.problem, seed=s, meta_learner=learner, target_meta=target_meta)
            yield run_session(tuner, task, SimEvaluator(task.profile, sim, seed=s), self.budget, tracer)


WORKLOADS = {w.name: w for w in (OnlineHiBench(), BaselinesHiBench(), MetaWarmstart())}

