"""Behaviour fingerprint: fixed-seed tuning trajectories on the simulator.

The digest covers every configuration OnlineTuner and CherryPick suggest
in 12 iterations on HiBench terasort (initial design, EIC with the safe
region, AGD, and CherryPick's full-space pool). It was recorded before
candidate pools became unit-row arrays; a change that alters what the
tuners suggest changes it.
"""
import hashlib

from repro.baselines import CherryPickTuner
from repro.core.config_space import hibench_space
from repro.core.controller import OnlineTuner
from repro.core.objective import TuningProblem
from repro.experiments.harness import SimEvaluator, default_constraints, run_tuning
from repro.simcluster import ClusterSimulator, get_profile

DIGEST = "5d5ac4fac4c4e0aa0e2726efccab5bea3b1a26c2a6ecd72ff9af4a2223ecdaf0"


def test_trajectory_digest():
    space = hibench_space()
    sim = ClusterSimulator(capacity_cores=384, capacity_mem_gb=2048)
    profile = get_profile("terasort")
    problem = TuningProblem(0.5, default_constraints(space, profile, sim, space.default_config()))
    h = hashlib.sha256()
    for tuner in (
        OnlineTuner(space, problem, seed=0, use_meta=False, reference_config=space.default_config()),
        CherryPickTuner(space, problem, seed=0),
    ):
        history = run_tuning(tuner, SimEvaluator(profile, sim, seed=0), 12)
        for o in history.observations:
            h.update(repr(sorted(o.config.items())).encode())
    assert h.hexdigest() == DIGEST
