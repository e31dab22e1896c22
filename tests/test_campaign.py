"""Tests for campaign persistence and regression diffing."""

import json

import pytest

from repro.harness import CampaignExecutor, ExperimentSuite, RunSpec, cell_key
from repro.harness.campaign import (
    campaign_to_dict,
    diff_campaigns,
    load_campaign,
    save_campaign,
)


@pytest.fixture(scope="module")
def small_suite():
    suite = ExperimentSuite(scale="tiny", workloads=("xz",))
    suite.result("xz", "baseline")
    suite.result("xz", "tea")
    return suite


class TestSerialization:
    def test_roundtrip(self, small_suite, tmp_path):
        path = save_campaign(small_suite, tmp_path / "campaign.json")
        data = load_campaign(path)
        assert data["scale"] == "tiny"
        assert "xz/baseline" in data["runs"]
        assert "xz/tea" in data["runs"]

    def test_run_payload_complete(self, small_suite):
        data = campaign_to_dict(small_suite)
        run = data["runs"]["xz/tea"]
        for key in ("ipc", "mpki", "coverage", "accuracy", "early_flushes"):
            assert key in run
        assert run["validated"] is True

    def test_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "runs": {}}')
        with pytest.raises(ValueError, match="schema"):
            load_campaign(path)


def _ok_task(record):
    return {
        "stats": {"cycles": 100, "retired_instructions": 200},
        "validated": True,
        "halted": True,
    }


class TestTolerantLoading:
    def test_corrupt_json_raises_typed_error(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"schema": 1, "runs": {"xz/tea": {"ipc": 1.2')
        with pytest.raises(ValueError, match="corrupt campaign file"):
            load_campaign(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_campaign(path)

    def test_corrupt_run_record_skipped_with_warning(self, small_suite, tmp_path):
        path = save_campaign(small_suite, tmp_path / "campaign.json")
        data = json.loads(path.read_text())
        data["runs"]["xz/tea"] = "not-a-dict"
        path.write_text(json.dumps(data))
        with pytest.warns(UserWarning, match="corrupt run record 'xz/tea'"):
            loaded = load_campaign(path)
        assert "xz/tea" not in loaded["runs"]
        assert "xz/baseline" in loaded["runs"]

    def test_cell_store_loads_as_campaign(self, tmp_path):
        path = tmp_path / "cells"
        specs = [RunSpec("xz", m, "tiny") for m in ("baseline", "tea")]
        CampaignExecutor(jobs=0, task=_ok_task).run(specs, checkpoint=path)
        data = load_campaign(path)
        assert data["scale"] == "tiny"
        assert data["workloads"] == ["xz"]
        assert set(data["runs"]) == {"xz/baseline", "xz/tea"}
        assert data["runs"]["xz/tea"]["ipc"] == pytest.approx(2.0)

    def test_store_with_corrupt_entry_loads_rest(self, tmp_path):
        path = tmp_path / "cells"
        specs = [RunSpec("xz", m, "tiny") for m in ("baseline", "tea", "runahead")]
        CampaignExecutor(jobs=0, task=_ok_task).run(specs, checkpoint=path)
        torn = path / f"{cell_key(specs[2])}.json"
        torn.write_text(torn.read_text()[:40])   # crash mid-write
        with pytest.warns(UserWarning, match="corrupt cell store entry"):
            data = load_campaign(path)
        assert set(data["runs"]) == {"xz/baseline", "xz/tea"}

    def test_failed_cell_preserved_in_loaded_campaign(self, tmp_path):
        def failing(record):
            if record["mode"] == "tea":
                raise ValueError("model bug")
            return _ok_task(record)

        path = tmp_path / "cells"
        specs = [RunSpec("xz", m, "tiny") for m in ("baseline", "tea")]
        CampaignExecutor(jobs=0, task=failing).run(specs, checkpoint=path)
        data = load_campaign(path)
        assert data["runs"]["xz/tea"]["failure"] == "fatal"
        assert "model bug" in data["runs"]["xz/tea"]["error"]
        # Failed cells never contribute to diffs.
        assert diff_campaigns(data, data) == []


class TestDiff:
    def test_identical_campaigns_no_movements(self, small_suite):
        data = campaign_to_dict(small_suite)
        assert diff_campaigns(data, data) == []

    def test_regression_detected(self, small_suite):
        before = campaign_to_dict(small_suite)
        after = campaign_to_dict(small_suite)
        after["runs"]["xz/tea"] = dict(after["runs"]["xz/tea"])
        after["runs"]["xz/tea"]["ipc"] *= 0.9
        movements = diff_campaigns(before, after)
        assert movements
        assert movements[0]["run"] == "xz/tea"
        assert movements[0]["delta_pct"] == pytest.approx(-10.0, abs=0.1)

    def test_threshold_filters_noise(self, small_suite):
        before = campaign_to_dict(small_suite)
        after = campaign_to_dict(small_suite)
        after["runs"]["xz/tea"] = dict(after["runs"]["xz/tea"])
        after["runs"]["xz/tea"]["ipc"] *= 1.005
        assert diff_campaigns(before, after, threshold_pct=1.0) == []

    def test_new_runs_ignored(self, small_suite):
        before = campaign_to_dict(small_suite)
        after = campaign_to_dict(small_suite)
        after["runs"]["new/one"] = {"ipc": 1.0}
        assert diff_campaigns(before, after) == []
