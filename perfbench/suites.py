"""The three benchmark workloads and their output checks.

Each workload is one closed batch submitted from the benchmark process
through a public entry point, on a worker pool of ``jobs`` processes.
Construction (``__init__``) is set-up; :meth:`call` is the one timed
public call; :meth:`check` returns the operations whose output is wrong.
An operation is one campaign cell, one sampled window or one fuzz seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: Campaign cells: four workloads with different control flow and
#: footprints, each under the baseline core, TEA and Branch Runahead.
CAMPAIGN_WORKLOADS = ("bfs", "mcf", "xz", "sssp")
CAMPAIGN_MODES = ("baseline", "tea", "runahead")
GOLDEN = Path("tests") / "data" / "golden_simstats.json"

#: Fuzz seeds per batch; ``--seed n`` selects seeds 64n .. 64n+63.
FUZZ_SEEDS = 64


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Suite:
    """Interface of a workload.  ``operations`` is the number of cells
    per batch; ``input_key`` names the inputs, for the cross-run digest
    check."""

    name: str
    operations: int
    input_key: str

    def call(self, workdir: Path):
        """The one timed public call; ``None`` when it raised."""
        raise NotImplementedError

    def check(self, result, workdir: Path) -> list[str]:
        """The operations whose output is wrong."""
        raise NotImplementedError

    def digest(self, result) -> str:
        """Fingerprint of the deterministic output."""
        raise NotImplementedError

    def extra(self, result, workdir: Path) -> dict:
        """Per-layer metrics read from the batch's output files."""
        return {}


class Campaign(Suite):
    """``CampaignExecutor(jobs).run`` over 12 tiny cells of the golden
    matrix; every cell must validate and match the golden SimStats."""

    name = "campaign"

    def __init__(self, root: Path, seed: int, jobs: int):
        from repro.harness.executor import CampaignExecutor, matrix_specs

        golden = json.loads((root / GOLDEN).read_text())
        self.fields = golden["fields"]
        self.specs = matrix_specs(
            CAMPAIGN_WORKLOADS, CAMPAIGN_MODES, scale=golden["scale"]
        )
        self.golden = {spec.key: golden["stats"][spec.key] for spec in self.specs}
        self.executor = CampaignExecutor(jobs=jobs)
        self.operations = len(self.specs)
        self.input_key = self.name

    def call(self, workdir: Path):
        return self.executor.run(self.specs)

    def check(self, outcomes, workdir: Path) -> list[str]:
        settled = {o.key: o for o in outcomes}
        failed = []
        for spec in self.specs:
            outcome = settled.get(spec.key)
            if outcome is None or not outcome.ok or not outcome.validated:
                failed.append(spec.key)
                continue
            want = self.golden[spec.key]
            if any(outcome.stats[f] != want[f] for f in self.fields):
                failed.append(spec.key)
        return failed

    def digest(self, outcomes) -> str:
        return _sha256(json.dumps([(o.key, o.stats) for o in outcomes],
                                  sort_keys=True))


class Sample(Suite):
    """``run_sampled("mcf", "tea", "bench", jobs)`` with the default
    window plan; every window must settle and the report is compared
    byte for byte across runs."""

    name = "sample"

    def __init__(self, root: Path, seed: int, jobs: int):
        from repro.sampling import DEFAULT_WINDOWS, run_sampled

        self.run_sampled = run_sampled
        self.jobs = jobs
        self.operations = DEFAULT_WINDOWS
        self.input_key = self.name

    def call(self, workdir: Path):
        try:
            return self.run_sampled("mcf", "tea", "bench", jobs=self.jobs,
                                    workdir=workdir / "windows")
        except RuntimeError:   # raised when any window fails
            return None

    def check(self, report, workdir: Path) -> list[str]:
        if report is None:
            return [f"window-{i}" for i in range(self.operations)]
        done = {row["index"] for row in report["windows"]}
        return [f"window-{i}" for i in range(self.operations) if i not in done]

    def digest(self, report) -> str:
        return _sha256(json.dumps(report, indent=1, sort_keys=True) + "\n")

    def extra(self, report, workdir: Path) -> dict:
        files = (workdir / "windows").glob("window-*.json")
        return {"sampling.window_file_bytes": sum(p.stat().st_size for p in files)}


class Fuzz(Suite):
    """``run_fuzz_campaign`` over 64 seeds in baseline mode with audits
    every 64 cycles and shrinking off; every seed must classify
    ``pass``."""

    name = "fuzz"

    def __init__(self, root: Path, seed: int, jobs: int):
        from repro.fuzz import run_fuzz_campaign

        self.run_fuzz_campaign = run_fuzz_campaign
        self.seeds = range(seed * FUZZ_SEEDS, (seed + 1) * FUZZ_SEEDS)
        self.jobs = jobs
        self.operations = FUZZ_SEEDS
        self.input_key = f"{self.name}:{self.seeds.start}"

    def call(self, workdir: Path):
        # Failing seeds would be written as repro records; keep them in
        # the run's scratch directory, not the tracked corpus.
        return self.run_fuzz_campaign(self.seeds, jobs=self.jobs, shrink=False,
                                      corpus_dir=workdir / "corpus")

    def check(self, report, workdir: Path) -> list[str]:
        failed = sorted({seed for entry in report["unique_failures"]
                         for seed in entry["seeds"]})
        if report["counts"]["pass"] != len(self.seeds) - len(failed):
            failed = list(self.seeds)   # the triage counts disagree
        return [f"seed-{seed}" for seed in failed]

    def digest(self, report) -> str:
        return _sha256(json.dumps(report, sort_keys=True))


SUITES = {suite.name: suite for suite in (Campaign, Sample, Fuzz)}
