"""Behavioural tests for the Fig. 10 ablations: each feature must
matter on a kernel crafted to need exactly that feature."""

import random

from repro import MemoryImage, Pipeline, assemble
from repro.harness import make_config


def run(source, mem_snapshot, mode):
    pipeline = Pipeline(
        assemble(source), MemoryImage(mem_snapshot), make_config(mode)
    )
    stats = pipeline.run(max_cycles=5_000_000)
    assert pipeline.halted
    return pipeline, stats


class TestMasksFeature:
    """§III-E: multi-path control flow needs OR-combined masks."""

    SOURCE = """
        li r1, 0
        li r2, 0
        li r3, 2500
        li r4, 4096      # data
        li r7, 36864     # selector
    loop:
        shli r5, r2, 3
        add r6, r5, r7
        ld r8, 0(r6)     # selector[i] (short repeating pattern)
        add r5, r5, r4
        beqz r8, path_b  # predictable intermediate branch
        ld r9, 0(r5)     # path A input
        jmp join
    path_b:
        ld r9, 8(r5)     # path B input (different load!)
    join:
        blt r9, r0, skip # H2P: depends on whichever path ran
        addi r1, r1, 1
    skip:
        addi r2, r2, 1
        blt r2, r3, loop
        halt
    """

    def _memory(self):
        rng = random.Random(71)
        mem = MemoryImage()
        mem.write_array(4096, [rng.choice([-3, 3]) for _ in range(2600)])
        pattern = (1, 1, 0, 1, 0)
        mem.write_array(36864, [pattern[i % 5] for i in range(2500)])
        return mem.snapshot()

    def test_masks_preserve_accuracy_on_multipath(self):
        snap = self._memory()
        _, full = run(self.SOURCE, snap, "tea")
        _, nomask = run(self.SOURCE, snap, "tea_no_masks")
        # Removing masks must not *gain* accuracy, and typically loses
        # accuracy or coverage on two-path chains.
        assert full.tea_accuracy >= nomask.tea_accuracy - 0.01
        assert (full.coverage, full.tea_accuracy) >= (
            nomask.coverage - 0.05,
            nomask.tea_accuracy - 0.01,
        )


class TestMemoryFeature:
    """§III-D: chains through store->load (argument passing) need the
    memory Source List."""

    SOURCE = """
        li sp, 65536
        li r1, 0
        li r2, 0
        li r3, 2000
        li r4, 4096
    loop:
        shli r5, r2, 3
        add r5, r5, r4
        ld r6, 0(r5)
        st r6, -8(sp)    # pass via memory (like a call argument)
        ld r7, -8(sp)
        blt r7, r0, skip # H2P fed through the store->load pair
        addi r1, r1, 1
    skip:
        addi r2, r2, 1
        blt r2, r3, loop
        halt
    """

    def _memory(self):
        rng = random.Random(73)
        mem = MemoryImage()
        mem.write_array(4096, [rng.choice([-2, 2]) for _ in range(2000)])
        return mem.snapshot()

    def test_memory_tracing_needed_for_store_load_chain(self):
        snap = self._memory()
        pipe_full, full = run(self.SOURCE, snap, "tea")
        pipe_nomem, nomem = run(self.SOURCE, snap, "tea_no_mem")
        # With memory tracing the chain is complete and coverage high;
        # without it the chain is cut at the store.
        assert full.coverage > nomem.coverage
        # Correctness in both cases.
        assert (
            pipe_full.architectural_register(1)
            == pipe_nomem.architectural_register(1)
        )


class TestOnlyLoopsFeature:
    """§III-C: chains longer than one iteration need walk re-seeding."""

    SOURCE = """
        li r1, 0
        li r2, 0
        li r3, 2000
        li r4, 4096
    loop:
        # stretch the per-iteration dependence chain
        shli r5, r2, 3
        add r5, r5, r4
        add r5, r5, r0
        add r5, r5, r0
        add r5, r5, r0
        ld r6, 0(r5)
        blt r6, r0, skip
        addi r1, r1, 1
    skip:
        addi r2, r2, 1
        blt r2, r3, loop
        halt
    """

    def _memory(self):
        rng = random.Random(79)
        mem = MemoryImage()
        mem.write_array(4096, [rng.choice([-5, 5]) for _ in range(2000)])
        return mem.snapshot()

    def test_full_config_at_least_matches_only_loops(self):
        snap = self._memory()
        _, full = run(self.SOURCE, snap, "tea")
        _, loops = run(self.SOURCE, snap, "tea_only_loops")
        assert full.coverage >= loops.coverage - 0.05
        # The headline claim of Fig. 10: the full configuration's
        # performance (IPC) is never meaningfully below any ablation.
        assert full.ipc >= loops.ipc * 0.97
