"""Closed-loop tuning benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload online-hibench --seed 1 --seconds 33 --trace 0

Untraced (``--trace 0``) it times whole rounds of tuning sessions for
about ``--seconds`` seconds (at least one round) and reports the
end-to-end metrics. Traced (``--trace 1``) it does the same, then
replays round 0 with every layer wrapped by :mod:`tracing` and reports
the per-layer metrics, checking that tracing did not change a single
suggested config; every layer figure, reported or not, is also written
to ``out/layers-<workload>.json``. The result line reports the metrics
BENCHMARK.json lists. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when an output check fails. README.md lists the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: the metrics the result line reports, with their units: BENCHMARK.json's
#: ``end_to_end`` list untraced, its ``per_layer`` list traced
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: seconds of tuning per set-up sample (see setup_seconds)
SETUP_EVERY_S = 1.6

# BLAS threads are pinned before NumPy loads, so every run — and both
# sides of any comparison — uses the same count, never above nproc.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


#: one set-up in a fresh process, timed from before its first import
SETUP_CHILD = """\
import time; t0 = time.perf_counter()
import sys, workloads
workloads.WORKLOADS[sys.argv[1]].setup()
print(time.perf_counter() - t0)
"""


def setup_seconds(workload: str) -> float:
    """Set-up time of a fresh process that imports the tuner and builds
    the workload's inputs, so work moved into import or set-up shows.

    The machine's speed drifts by 10 to 15 % within seconds, and one
    set-up takes about 0.2 s, so ``measure`` runs it after every session,
    once per ``SETUP_EVERY_S`` of tuning so far, and ``setup_s`` is the
    median over the whole run, sampled across the same stretch of time
    as the tuning it is reported with."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}
    return float(subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, workload],
        env=env, check=True, timeout=120, capture_output=True, text=True,
    ).stdout)


def quality(sessions) -> dict[str, float]:
    """Mean best-cost reduction against the reference config, and the
    share of executed configs that met every constraint (§6.4)."""
    n = sum(s.attempted for s in sessions)
    return {
        "best_cost_reduction_pct": statistics.fmean(s.best_cost_reduction_pct for s in sessions),
        "safe_pct": 100.0 * sum(s.feasible for s in sessions) / n,
    }


def measure(wl, env: dict, seed: int, seconds: float) -> tuple[list[list], list[float], list[float]]:
    """Whole rounds until the tuning time is as near ``seconds`` as whole
    rounds get: another round starts while it is expected to end less
    than half a round past ``seconds``. Returns the rounds, their wall
    times and the set-up times taken between sessions, which no round's
    wall time includes."""
    rounds, walls, setup = [], [], []
    while not walls or sum(walls) + statistics.fmean(walls) / 2 <= seconds:
        sessions, wall = [], 0.0
        it = wl.sessions(env, seed, len(rounds))
        while True:
            t0 = time.perf_counter()
            session = next(it, None)
            wall += time.perf_counter() - t0
            if session is None:
                break
            sessions.append(session)
            while len(setup) < (sum(walls) + wall) / SETUP_EVERY_S:
                setup.append(setup_seconds(wl.name))
        rounds.append(sessions)
        walls.append(wall)
    return rounds, walls, setup


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile that leaves at least 10 samples above
    it, and its value."""
    import numpy as np

    pct = max(int(100.0 * (1.0 - 10.0 / len(samples))), 0)
    return float(np.percentile(samples, pct)), pct


def end_to_end(sessions, walls: list[float], setup: list[float]) -> dict[str, tuple[float, str]]:
    import numpy as np

    samples = [t for s in sessions for t in s.model_suggest_s]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "iters_per_s": (sum(s.tuning for s in sessions) / sum(walls), "1/s"),
        "suggest_ms_p50": (1e3 * float(np.median(samples)), "ms"),
    }


def per_layer(tracer, sessions, untraced_wall: float, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Layer metrics of one traced round, from its spans and counters.

    BENCHMARK.json's ``per_layer`` list leaves out the times that read
    exactly 0 on a workload that never calls the layer (the ``meta.*.s``
    times on ``online-hibench``, ...): a time that reads the same on
    every run is refused as a measurement. Counts may be 0: they repeat
    exactly by design."""
    t = tracer.totals()

    def get(name: str, key: str) -> float:
        return t.get(name, {}).get(key, 0)

    model_suggests = sum(len(s.model_suggest_s) for s in sessions)
    update_calls = get("subspace.update", "calls")
    refits = tracer.parents_with_child("subspace.update", "forest.fit")
    scored = tracer.counts["acq.safe_mask.scored"]
    counts = {
        "gp.fit.calls": get("gp.fit", "calls"),
        "gp.predict.calls": get("gp.predict", "calls"),
        "gp.predict.rows": tracer.counts["gp.predict.rows"],
        **{f"space.{f}.calls": get(f"space.{f}", "calls")
           for f in ("sample_random", "from_unit", "to_unit")},
        "subspace.update.calls": update_calls,
        "subspace.refits": refits,
        "agd.step.calls": get("agd.step", "calls"),
        "agd.gp_predict.calls": tracer.count_within("gp.predict", "agd.step"),
        "tree.fit.calls": get("tree.fit", "calls"),
        "tree.predict.calls": get("tree.predict", "calls"),
        "tree.predict.rows": tracer.counts["tree.predict.rows"],
        "ga.minimize.calls": get("ga.minimize", "calls"),
        "meta.surrogate_distance.calls": get("meta.surrogate_distance", "calls"),
        "meta.ensemble.predict.calls": get("meta.ensemble.predict", "calls"),
        "sim.run.calls": get("sim.run", "calls"),
        **{f"phase.{p}": sum(s.phases.get(p, 0) for s in sessions)
           for p in ("init", "eic", "agd", "safe_fallback", "stopped")},
    }
    seconds = {
        "gp.fit.s": get("gp.fit", "s"),
        "gp.predict.s": get("gp.predict", "s"),
        **{f"space.{f}.s": get(f"space.{f}", "s") for f in ("sample_random", "from_unit", "to_unit")},
        "generator.suggest.self_s": get("generator.suggest", "self_s"),
        "acq.eic.s": get("acq.eic", "s"),
        "acq.safe_mask.s": get("acq.safe_mask", "s"),
        "forest.fit.s": get("forest.fit", "s"),
        "forest.predict.s": get("forest.predict", "s"),
        "fanova.s": get("fanova", "s"),
        "agd.step.s": get("agd.step", "s"),
        "tree.fit.s": get("tree.fit", "s"),
        "tree.predict.s": get("tree.predict", "s"),
        "gbm.fit.s": get("gbm.fit", "s"),
        "gbm.predict.s": get("gbm.predict", "s"),
        "ga.minimize.self_s": get("ga.minimize", "self_s"),
        "meta.fit.s": get("meta.fit", "s"),
        "meta.surrogate_distance.s": get("meta.surrogate_distance", "s"),
        "meta.ensemble.predict.s": get("meta.ensemble.predict", "s"),
        "sim.run.s": get("sim.run", "s"),
    }
    ratios = {
        "gp.fit_per_model_suggest": get("gp.fit", "calls") / max(model_suggests, 1),
        "acq.safe_frac": tracer.counts["acq.safe_mask.safe"] / scored if scored else 0.0,
        "subspace.refit_ratio": refits / update_calls if update_calls else 0.0,
    }
    return {
        **{k: (v, "count") for k, v in counts.items()},
        **{k: (v, "s") for k, v in seconds.items()},
        **{k: (v, "ratio") for k, v in ratios.items()},
        **{k: (v, "%") for k, v in quality(sessions).items()},
        "trace.overhead_pct": (100.0 * (traced_wall / untraced_wall - 1.0), "%"),
    }


def report(measured: dict[str, tuple[float, str]], entries: list[dict]) -> dict[str, tuple[float, str]]:
    """The measured metrics that ``entries`` (a BENCHMARK.json list) names."""
    return {e["name"]: measured[e["name"]] for e in entries}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    print("machine " + " ".join(f"{k}={v}" for k, v in machine_info().items()))

    env = wl.setup()
    rounds, walls, setup = measure(wl, env, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sessions = [s for r in rounds for s in r]
    ref_digest = workloads.digest(rounds[0])
    samples = [t for s in sessions for t in s.model_suggest_s]
    tail_s, tail_pct = tail(samples)
    q = quality(rounds[0])
    print(f"workload {wl.name} seed={args.seed} rounds={len(rounds)} sessions={len(sessions)} "
          f"round_s={','.join(f'{w:.2f}' for w in walls)} digest={ref_digest[:16]}")
    print(f"setup_s is the median of {len(setup)} set-ups: {', '.join(f'{t:.3f}' for t in setup)} s")
    print(f"suggest_ms_p50 and suggest_ms_tail are over n={len(samples)} model-based suggests; "
          f"suggest_ms_tail = p{tail_pct} = {1e3 * tail_s:.3f} ms (lower is better)")
    print(f"round 0: best_cost_reduction_pct={q['best_cost_reduction_pct']:.4f} % "
          f"safe_pct={q['safe_pct']:.4f} % (higher is better) peak_rss_mb={peak_rss_mb:.1f} MB")
    checks = {"every iteration passed its output checks": all(s.failed == 0 for s in sessions)}

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span("round"):
                traced = list(wl.sessions(env, args.seed, 0, tracer))
            traced_wall = time.perf_counter() - t0
        checks["traced round 0 suggested the same configs"] = workloads.digest(traced) == ref_digest
        checks["traced round 0 passed its output checks"] = all(s.failed == 0 for s in traced)
        sessions += traced
        measured = per_layer(tracer, traced, walls[0], traced_wall)
        measured["peak_rss_mb"] = (peak_rss_mb, "MB")
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{wl.name}.npz")
        (OUT / f"layers-{wl.name}.json").write_text(json.dumps(
            {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}, indent=1))
        reported = report(measured, SPEC["per_layer"])
    else:
        measured = end_to_end(sessions, walls, setup)
        reported = report(measured, SPEC["end_to_end"])

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} iterations)")
    for name, (value, unit) in measured.items():
        print(f"{name:32s} {value:16.6f} {unit}{'' if name in reported else '  (not in the result line)'}")
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
