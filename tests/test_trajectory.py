"""Behaviour fingerprint: fixed-seed tuning trajectories on the simulator.

``DIGEST`` covers every configuration OnlineTuner and CherryPick suggest
in 12 iterations on HiBench terasort (initial design, EIC with the safe
region, AGD, and CherryPick's full-space pool). It was recorded before
candidate pools became unit-row arrays.

``DIGEST_MODELS`` covers the layers that one does not reach: 14
iterations each of Tuneful and LOCAT (forest, fANOVA, Spearman
sub-space), RFHOC and DAC (forest, boosted trees, GA) on terasort, and
a warm-started, ensemble-surrogate OnlineTuner on kmeans whose
meta-learner is fitted on three 10-point Sobol source tasks. It was
recorded before the tuner's fixed constants stopped being options.

A change that alters what the tuners suggest changes a digest.
"""
import hashlib

from repro.baselines import CherryPickTuner, DACTuner, LOCATTuner, RFHOCTuner, TunefulTuner
from repro.core.bo import RunHistory
from repro.core.config_space import hibench_space
from repro.core.controller import OnlineTuner
from repro.core.meta import MetaLearner, SourceTask
from repro.core.objective import TuningProblem
from repro.experiments.harness import SimEvaluator, default_constraints, run_tuning
from repro.simcluster import ClusterSimulator, get_profile
from repro.simcluster.eventlog import meta_features

DIGEST = "5d5ac4fac4c4e0aa0e2726efccab5bea3b1a26c2a6ecd72ff9af4a2223ecdaf0"
DIGEST_MODELS = "ba4960d2d5a7e9a7fd038f73eba4ecaeb879b1488079b969e2fce3dc98ef4656"


def _setup():
    space = hibench_space()
    sim = ClusterSimulator(capacity_cores=384, capacity_mem_gb=2048)

    def problem(name):
        return TuningProblem(0.5, default_constraints(space, get_profile(name), sim, space.default_config()))

    return space, sim, problem


def _update(h, history):
    for o in history.observations:
        h.update(repr(sorted(o.config.items())).encode())


def test_trajectory_digest():
    space, sim, problem = _setup()
    profile = get_profile("terasort")
    h = hashlib.sha256()
    for tuner in (
        OnlineTuner(space, problem("terasort"), seed=0, use_meta=False, reference_config=space.default_config()),
        CherryPickTuner(space, problem("terasort"), seed=0),
    ):
        _update(h, run_tuning(tuner, SimEvaluator(profile, sim, seed=0), 12))
    assert h.hexdigest() == DIGEST


def test_model_trajectory_digest():
    space, sim, problem = _setup()
    h = hashlib.sha256()
    terasort = get_profile("terasort")
    for cls in (TunefulTuner, LOCATTuner, RFHOCTuner, DACTuner):
        _update(h, run_tuning(cls(space, problem("terasort"), seed=0), SimEvaluator(terasort, sim, seed=0), 14))
    sources = []
    for k, name in enumerate(("sort", "wordcount", "pagerank")):
        evaluator = SimEvaluator(get_profile(name), sim, seed=k)
        history = RunHistory(space, problem(name))
        for i, config in enumerate(space.sample_sobol(10, seed=k)):
            history.add(config, evaluator.evaluate(config, i))
        sources.append(SourceTask(name, meta_features(history.observations[0].result), history))
    learner = MetaLearner(space, seed=0).fit(sources)
    kmeans = get_profile("kmeans")
    target = meta_features(sim.run(kmeans, space.default_config(), seed=123))
    tuner = OnlineTuner(space, problem("kmeans"), seed=0, meta_learner=learner, target_meta=target)
    _update(h, run_tuning(tuner, SimEvaluator(kmeans, sim, seed=0), 14))
    assert h.hexdigest() == DIGEST_MODELS
