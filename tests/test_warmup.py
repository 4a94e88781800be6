"""How many suggests each tuner serves from its initial design.

The benchmark (``perfbench/workloads.warmup_length``) reads ``n_init``,
``n_warmup`` and ``sa_rounds`` by name, defaulting to 0, to tell
initial-design suggests from model-based ones; if one of these
attributes were renamed or removed, initial-design suggests would be
timed as model-based without any error.
"""
from pathlib import Path

import pytest

from repro.baselines import CherryPickTuner, DACTuner, LOCATTuner, RFHOCTuner, TunefulTuner
from repro.core.controller import OnlineTuner

WARMUP = {
    OnlineTuner: ("n_init", 3),
    CherryPickTuner: ("n_init", 3),
    RFHOCTuner: ("n_warmup", 12),
    DACTuner: ("n_warmup", 12),
    TunefulTuner: ("sa_rounds", 10),
    LOCATTuner: ("sa_rounds", 10),
}


@pytest.mark.parametrize("cls", WARMUP, ids=lambda c: c.__name__)
def test_warmup_length(cls, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import warmup_length

    attr, n = WARMUP[cls]
    assert getattr(cls, attr) == n
    assert warmup_length(cls) == n
