"""BENCHMARK.json must describe exactly what run.py reports."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_reported_metrics_are_those_benchmark_json_lists():
    wl = workloads.OnlineHiBench(tasks=("terasort",), budget=6)
    env = wl.setup()
    sessions = list(wl.sessions(env, 0, 0))
    tracer = Tracer()
    with tracer.installed():
        traced = list(wl.sessions(env, 0, 0, tracer))
    layer = run.per_layer(tracer, traced, 1.0, 1.0)
    layer["peak_rss_mb"] = (1.0, "MB")
    for measured, entries in (
        (run.end_to_end(sessions, walls=[1.0], setup=[0.1]), SPEC["end_to_end"]),
        (layer, SPEC["per_layer"]),
    ):
        assert {k: u for k, (_, u) in run.report(measured, entries).items()} == {
            e["name"]: e["unit"] for e in entries}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-hibench",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
