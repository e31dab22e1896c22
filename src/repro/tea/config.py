"""TEA thread configuration (paper Table II + §III feature knobs).

The feature flags map one-to-one to the ablation configurations of the
paper's Fig. 10:

* ``trace_memory``  — "no mem" when False (§III-D);
* ``use_masks``     — "no masks" when False: Block Cache entries are
  overwritten instead of OR-combined and Backward Dataflow Walks may
  only start at H2P branches (§III-C/E);
* ``only_loops``    — chains recorded only between two consecutive
  instances of an H2P branch (§V-E);
* ``early_resolution`` — False gives the prefetch-only mode of §V-B.

The named ablation modes are presets in :mod:`repro.harness.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TeaConfig:
    """Structures and policies of the TEA thread."""

    # Backend partition (paper §IV-E).
    rs_entries: int = 192
    physical_registers: int = 192
    dedicated_engine: bool = False
    dedicated_execution_units: int = 16
    # Frontend.
    frontend_delay: int = 9
    fetch_width: int = 8
    rename_pipe_capacity: int = 64
    # H2P table (paper §IV-B).
    h2p_entries: int = 256
    h2p_ways: int = 8
    h2p_counter_max: int = 7       # 3-bit counter
    h2p_threshold: int = 1         # H2P when counter > threshold
    h2p_decrement_period: int = 50_000
    # Fill Buffer + Backward Dataflow Walk (paper §IV-C).
    fill_buffer_size: int = 512
    walk_cycles: int = 500
    mem_source_entries: int = 16
    # Block Cache (paper §IV-C).
    block_cache_entries: int = 512
    empty_tag_entries: int = 256
    uops_per_entry: int = 8
    mask_reset_period: int = 500_000
    # Store data cache (paper §IV-E).
    store_cache_halflines: int = 16
    # Termination policy (paper §V-B).
    max_late_resolutions: int = 4
    # Graceful degradation: accuracy gating (repro.verify PR; the
    # Bullseye/LDBP-style confidence filtering the paper's 99.3%
    # accuracy leans on implicitly).  Accuracy counters are always
    # maintained; the *actions* below are gated on ``accuracy_gating``.
    #
    # ``chain_*`` knobs act per H2P branch PC: once a chain has
    # ``chain_min_samples`` resolutions and its correct fraction over
    # the decaying window falls below ``chain_disable_threshold``, its
    # early flushes are suppressed (``tea_chain_disabled`` event) until
    # ``chain_reenable_period`` further retirements have elapsed
    # (``tea_chain_enabled``).  ``kill_*`` knobs act globally: sustained
    # accuracy below ``kill_threshold`` after ``kill_min_samples``
    # resolutions disables the TEA thread for the rest of the run
    # (``tea_degraded`` event, SimStats.tea_killed).
    accuracy_gating: bool = True
    chain_accuracy_window: int = 64      # decay-halve counters every N samples
    chain_disable_threshold: float = 0.5
    chain_min_samples: int = 16
    chain_reenable_period: int = 50_000  # retirements before re-enable
    kill_threshold: float = 0.25
    kill_min_samples: int = 512
    # Thread-construction features (paper §III, ablated in Fig. 10).
    trace_memory: bool = True
    use_masks: bool = True
    only_loops: bool = False
    early_resolution: bool = True
    # Static pre-screen (repro.analysis.chains): when set, only branch
    # PCs in this allow mask may be treated as H2P — denied branches
    # never seed Backward Dataflow Walks, so no chain slots, walks, or
    # early flushes are ever spent on them.  ``None`` disables masking
    # (every branch is eligible, the paper's behaviour).
    branch_mask: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        def require(condition: bool, message: str) -> None:
            if not condition:
                from ..core.config import ConfigError

                raise ConfigError(message)

        for name in (
            "rs_entries",
            "physical_registers",
            "dedicated_execution_units",
            "fetch_width",
            "rename_pipe_capacity",
            "h2p_entries",
            "h2p_ways",
            "h2p_decrement_period",
            "fill_buffer_size",
            "block_cache_entries",
            "uops_per_entry",
            "mask_reset_period",
            "store_cache_halflines",
        ):
            require(
                getattr(self, name) >= 1,
                f"TeaConfig.{name} must be >= 1, got {getattr(self, name)}",
            )
        for name in (
            "frontend_delay",
            "walk_cycles",
            "mem_source_entries",
            "empty_tag_entries",
            "max_late_resolutions",
        ):
            require(
                getattr(self, name) >= 0,
                f"TeaConfig.{name} must be >= 0, got {getattr(self, name)}",
            )
        for name in (
            "chain_accuracy_window",
            "chain_min_samples",
            "chain_reenable_period",
            "kill_min_samples",
        ):
            require(
                getattr(self, name) >= 1,
                f"TeaConfig.{name} must be >= 1, got {getattr(self, name)}",
            )
        for name in ("chain_disable_threshold", "kill_threshold"):
            value = getattr(self, name)
            require(
                0.0 <= value <= 1.0,
                f"TeaConfig.{name} must be in [0, 1], got {value}",
            )
        require(
            self.h2p_ways <= self.h2p_entries,
            f"TeaConfig.h2p_ways ({self.h2p_ways}) cannot exceed "
            f"h2p_entries ({self.h2p_entries})",
        )
        if self.branch_mask is not None:
            require(
                all(isinstance(pc, int) and pc >= 0 for pc in self.branch_mask),
                "TeaConfig.branch_mask must hold non-negative branch PCs",
            )
            require(
                tuple(sorted(set(self.branch_mask))) == self.branch_mask,
                "TeaConfig.branch_mask must be sorted and duplicate-free "
                "(it participates in config digests)",
            )
        require(
            0 <= self.h2p_threshold < self.h2p_counter_max,
            f"TeaConfig.h2p_threshold ({self.h2p_threshold}) must satisfy "
            f"0 <= threshold < h2p_counter_max ({self.h2p_counter_max}); "
            f"otherwise no branch can ever be identified as H2P",
        )

