"""Cheap smoke tests for the design-sweep experiments (the heavy
versions run in benchmarks/test_design_sweeps.py)."""

from repro.core import Pipeline
from repro.harness import (
    block_cache_sweep,
    ftq_sweep,
    h2p_marking_sweep,
    wide_frontend_comparison,
)


def test_h2p_marking_sweep_structure():
    data = h2p_marking_sweep(workloads=("xz",), thresholds=(1, 6), scale="tiny")
    assert set(data["coverage"]) == {1, 6}
    assert all(0.0 <= v <= 1.0 for v in data["coverage"].values())
    # Marking fewer branches (higher threshold) never raises coverage.
    assert data["coverage"][6] <= data["coverage"][1] + 0.05


def test_block_cache_sweep_structure():
    data = block_cache_sweep(workloads=("xz",), sizes=(16, 512), scale="tiny")
    assert set(data["speedup"]) == {16, 512}
    # A 16-entry Block Cache cannot out-cover a 512-entry one by much.
    assert data["coverage"][512] >= data["coverage"][16] - 0.10


def test_ftq_sweep_structure():
    data = ftq_sweep(workloads=("xz",), capacities=(8, 128), scale="tiny")
    assert set(data["speedup"]) == {8, 128}


def test_wide_frontend_comparison():
    data = wide_frontend_comparison(workloads=("xz",), scale="tiny")
    assert data["paper_wide_pct"] == 2.8
    # The paper's argument must hold even on one kernel: TEA beats a
    # 16-wide frontend by a wide margin.
    assert data["tea_pct"] > data["wide_pct"]


def test_h2p_marking_sweep_simulates_baseline_once(monkeypatch):
    calls = []
    real_run = Pipeline.run

    def counting_run(self, *args, **kwargs):
        calls.append(1)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "run", counting_run)
    h2p_marking_sweep(("xz",), (1, 6), "tiny")
    # One shared baseline plus one TEA run per threshold.
    assert len(calls) == 3
