"""Contract tests for the harness runner's failure modes and the
ablation mode presets."""

import pytest

from repro import MemoryImage, Pipeline, SimConfig, assemble
from repro.core.config import ConfigError
from repro.harness import make_config, run_workload
from repro.tea import TeaConfig
from repro.workloads import build
from repro.workloads.base import Arena


class TestValidationEnforcement:
    def test_failing_validator_raises(self):
        """A simulator that computes wrong answers must never silently
        produce performance numbers (runner contract)."""

        def populate(arena: Arena) -> dict:
            return {}

        workload = build(
            "lying",
            "li r1, 42\nhalt",
            populate,
            "simple",
            validate=lambda pipeline: False,
        )
        with pytest.raises(RuntimeError, match="validation FAILED"):
            run_workload(workload, "baseline")

    def test_passing_validator_recorded(self):
        def populate(arena: Arena) -> dict:
            return {}

        workload = build(
            "honest",
            "li r1, 42\nhalt",
            populate,
            "simple",
            validate=lambda pipeline: pipeline.architectural_register(1) == 42,
        )
        result = run_workload(workload, "baseline")
        assert result.validated

    def test_non_halting_workload_reports(self):
        def populate(arena: Arena) -> dict:
            return {}

        workload = build("spinner", "x: jmp x", populate, "simple")
        result = run_workload(workload, "baseline", max_cycles=2_000)
        assert not result.halted


class TestAblationFactory:
    """The Fig. 10 ablations are mode presets over :class:`TeaConfig`."""

    def test_known_names(self):
        assert make_config("tea").tea == TeaConfig()
        assert make_config("tea_only_loops").tea.only_loops
        assert not make_config("tea_no_masks").tea.use_masks
        assert not make_config("tea_no_mem").tea.trace_memory
        bare = make_config("tea_no_features").tea
        assert bare.only_loops and not bare.use_masks and not bare.trace_memory
        assert make_config("tea_no_features", {
            "tea.only_loops": False, "tea.use_masks": True,
            "tea.trace_memory": True,
        }) == make_config("tea")

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            make_config("extra_crispy")

    def test_configs_are_frozen(self):
        with pytest.raises(Exception):
            make_config("tea").tea.rs_entries = 5


class TestConfigIndependence:
    def test_two_pipelines_do_not_share_state(self):
        """Predictors, caches, and stats must be per-instance."""
        program = assemble(
            """
            li r1, 0
            li r2, 50
        top:
            addi r1, r1, 1
            blt r1, r2, top
            halt
            """
        )
        a = Pipeline(program, MemoryImage(), SimConfig())
        a.run()
        b = Pipeline(program, MemoryImage(), SimConfig())
        assert b.stats.retired_instructions == 0
        assert b.frontend.cond.tage.predictions == 0
        b.run()
        assert a.stats.cycles == b.stats.cycles  # determinism too
