"""The benchmark harness still runs and its output checks still pass.

Each workload in bench/workloads.py is set up and runs one unit at a tiny
size with no injected latency, so that a change to the program that breaks
the benchmark (a renamed name it drives, an output it checks) fails here.
Nothing under bench/ is edited: the sizes are module globals the workloads
read at call time.
"""

import sys
from pathlib import Path

import pytest

from langrepo.config import AppConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_MODULES = ("gen", "fakeserver", "tracing", "workloads")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in BENCH_MODULES:
        # Registered so that the bench modules imported below are dropped
        # from sys.modules again afterwards.
        monkeypatch.setitem(sys.modules, name, None)
        del sys.modules[name]
    import workloads as module

    monkeypatch.setattr(module, "N_VIDEOS", 2)
    monkeypatch.setattr(module, "N_CAPTIONS", 48)
    monkeypatch.setattr(module, "N_QUESTIONS", 3)
    monkeypatch.setattr(module, "LATENCY_S", 0.0)
    return module


@pytest.mark.parametrize("name", ["eval-cold", "answer-conditioned"])
def test_setup_and_one_unit_pass_every_check(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](AppConfig(), seed=3, work_dir=tmp_path / "work")
    workload.setup(tmp_path / "setup")
    assert workload.setup_violations == []
    unit = workload.unit(0)
    assert unit.violations == []
    assert len(unit.question_s) == 2 * 3
