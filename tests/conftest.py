"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import random

import pytest

from repro import MemoryImage, Pipeline, SimConfig, assemble
from repro.tea import TeaConfig

# A simulation allocates millions of short-lived objects (uops, branch
# and prediction records) that reference counting frees on its own; at
# the default generation-0 threshold of 700 the cyclic collector runs
# every few hundred of them and costs 3-7% of the suite's wall time.
gc.set_threshold(100_000, 50, 100)


def assemble_and_run(source, memory=None, config=None, max_cycles=2_000_000):
    """Assemble, simulate to halt, and return the pipeline."""
    program = assemble(source)
    pipeline = Pipeline(program, memory or MemoryImage(), config or SimConfig())
    pipeline.run(max_cycles=max_cycles)
    assert pipeline.halted, "program did not halt"
    return pipeline


#: A small kernel with one genuinely hard-to-predict branch: sums the
#: non-negative entries of a random ±array.  Used across integration
#: tests for the baseline, TEA, and Branch Runahead.
H2P_LOOP_SRC = """
    li r1, 0          # sum
    li r2, 0          # i
    li r3, {n}
    li r4, 4096       # data base
loop:
    shli r5, r2, 3
    add r5, r5, r4
    ld r6, 0(r5)
    blt r6, r0, skip  # H2P: sign of random data
    add r1, r1, r6
skip:
    addi r2, r2, 1
    blt r2, r3, loop
    halt
"""


def h2p_loop_workload(n=2000, seed=7):
    """(source, memory, expected_sum) for the H2P loop kernel."""
    rng = random.Random(seed)
    values = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n)]
    memory = MemoryImage()
    memory.write_array(4096, values)
    expected = sum(v for v in values if v >= 0)
    return H2P_LOOP_SRC.format(n=n), memory, expected


@pytest.fixture(scope="session")
def h2p_baseline_run():
    """Session-cached baseline run of the H2P loop (it is reused by
    several integration tests; simulation is expensive)."""
    source, memory, expected = h2p_loop_workload()
    pipeline = assemble_and_run(source, memory)
    return pipeline, expected


@pytest.fixture(scope="session")
def h2p_tea_run():
    """Session-cached TEA run of the same kernel."""
    source, memory, expected = h2p_loop_workload()
    pipeline = assemble_and_run(source, memory, SimConfig(tea=TeaConfig()))
    return pipeline, expected
