"""Fuzz campaigns: triage, determinism, records, registry replay."""

import json

import pytest

from repro.fuzz import (
    GeneratorProfile,
    fuzz_spec,
    load_record,
    replay_record,
    run_fuzz_campaign,
)
from repro.fuzz.corpus import CORPUS_ENV
from repro.workloads import fuzz_corpus_names, make_workload

SMALL = GeneratorProfile(
    loops=1, loop_depth=1, body_ops=2, pointer_chase=1, call_depth=1,
    indirect_fanout=0, array_len=8, fp_frac=0.0,
)

SEEDS = range(6)


def _campaign(tmp_path, **kwargs):
    kwargs.setdefault("profile", SMALL)
    kwargs.setdefault("corpus_dir", tmp_path / "corpus")
    return run_fuzz_campaign(SEEDS, **kwargs)


class TestCleanCampaign:
    def test_current_kernel_has_zero_unique_failures(self, tmp_path):
        report = _campaign(tmp_path)
        assert report["counts"]["pass"] == len(SEEDS)
        assert report["num_unique_failures"] == 0
        corpus = tmp_path / "corpus"
        assert not corpus.is_dir() or not list(corpus.glob("*.json"))

    def test_report_is_deterministic(self, tmp_path):
        a = _campaign(tmp_path / "a")
        b = _campaign(tmp_path / "b")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_list_is_deduped_and_sorted(self, tmp_path):
        report = run_fuzz_campaign(
            [3, 1, 1, 2], profile=SMALL, corpus_dir=tmp_path / "c"
        )
        assert report["seeds"] == [1, 2, 3]
        assert report["num_seeds"] == 3


class TestSeededBugCampaign:
    @pytest.fixture(scope="class")
    def bug_report(self, tmp_path_factory):
        corpus = tmp_path_factory.mktemp("corpus")
        report = run_fuzz_campaign(
            SEEDS, profile=SMALL, bug="addi-imm-one", corpus_dir=corpus
        )
        return report, corpus

    def test_bug_is_detected_and_deduplicated(self, bug_report):
        report, _ = bug_report
        assert report["counts"]["pass"] < len(SEEDS)
        assert report["num_unique_failures"] >= 1
        covered = sum(
            len(entry["seeds"]) for entry in report["unique_failures"]
        )
        assert covered + report["counts"]["pass"] == len(SEEDS)

    def test_failures_are_shrunk_below_the_bar(self, bug_report):
        report, _ = bug_report
        for entry in report["unique_failures"]:
            assert entry["shrunk"]
            assert entry["instructions"] <= 25

    def test_records_round_trip_and_replay(self, bug_report):
        report, corpus = bug_report
        for entry in report["unique_failures"]:
            record = load_record(corpus / entry["record"])
            assert record["seeded_bug"] == "addi-imm-one"
            # Replaying the self-contained record reproduces the exact
            # post-shrink signature, not merely the same family.
            assert replay_record(record).signature == entry["final_signature"]

    def test_no_shrink_keeps_full_program(self, tmp_path):
        report = run_fuzz_campaign(
            [0, 1], profile=SMALL, bug="addi-imm-one", shrink=False,
            corpus_dir=tmp_path / "c",
        )
        for entry in report["unique_failures"]:
            assert not entry["shrunk"]
            assert entry["record"] is not None


class TestExecutorIntegration:
    def test_process_pool_matches_inline(self, tmp_path):
        inline = _campaign(tmp_path / "a", jobs=0)
        pooled = _campaign(tmp_path / "b", jobs=2)
        assert json.dumps(inline, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_checkpoint_resume_skips_done_seeds(self, tmp_path):
        store = tmp_path / "cells"
        first = _campaign(tmp_path / "a", checkpoint=store)
        resumed = _campaign(tmp_path / "b", checkpoint=store, resume=True)
        assert first["counts"] == resumed["counts"]

    def test_cell_identity_includes_profile_and_bug(self):
        # The default campaign keeps its historical workload names.
        assert fuzz_spec(7).workload == "fuzz-000007"
        names = {
            fuzz_spec(7).workload,
            fuzz_spec(7, profile_record=SMALL.as_record()).workload,
            fuzz_spec(7, bug="addi-imm-one").workload,
            fuzz_spec(
                7, profile_record=SMALL.as_record(), bug="addi-imm-one"
            ).workload,
        }
        assert len(names) == 4
        assert all(name.startswith("fuzz-000007") for name in names)

    def test_resume_under_a_seeded_bug_does_not_reuse_clean_verdicts(
        self, tmp_path
    ):
        store = tmp_path / "cells"
        clean = _campaign(tmp_path / "a", checkpoint=store, shrink=False)
        assert clean["counts"]["pass"] == len(SEEDS)
        bugged = _campaign(
            tmp_path / "b", checkpoint=store, resume=True,
            bug="addi-imm-one", shrink=False,
        )
        fresh = _campaign(tmp_path / "c", bug="addi-imm-one", shrink=False)
        assert bugged["num_unique_failures"] > 0
        assert bugged["counts"] == fresh["counts"]


class TestRegistry:
    def test_corpus_records_become_workloads(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        run_fuzz_campaign(
            [0, 1, 2], profile=SMALL, bug="addi-imm-one", corpus_dir=corpus
        )
        monkeypatch.setenv(CORPUS_ENV, str(corpus))
        names = fuzz_corpus_names()
        assert names and all(n.startswith("fuzz/") for n in names)
        workload = make_workload(names[0])
        # On the *unbugged* kernel a recorded repro must validate: the
        # corpus is a regression suite for bugs that are fixed.
        from repro.core import Pipeline
        from repro.harness.runner import make_config

        pipeline = Pipeline(
            workload.program, workload.memory, make_config("baseline")
        )
        pipeline.run(max_cycles=200_000)
        assert pipeline.halted
        assert workload.validate(pipeline)

    def test_empty_corpus_means_no_names(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CORPUS_ENV, str(tmp_path / "nothing"))
        assert fuzz_corpus_names() == ()

    def test_unknown_corpus_record_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CORPUS_ENV, str(tmp_path))
        with pytest.raises(ValueError):
            make_workload("fuzz/no-such-record")
