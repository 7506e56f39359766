"""Harness checks: test-then-train ordering, no-leak hygiene, report math,
and the suite runner."""
import json

import numpy as np
import pytest

from devdan.checkpoint import model_to_dict, state_hash
from devdan.model import DevdanConfig, DevdanModel
from devdan.prequential import (
    CSV_HEADER,
    PredictCache,
    parameter_count,
    run_prequential,
    run_single,
    run_suite,
    write_batch_csv,
    write_summary_json,
)
from devdan.streams import DatasetSpec, StreamBatch, batchify


def null_clock():
    return 0.0


def coin_flip_batches(k=5, t=400, seed=0, n=3):
    """Features carry no label information; rates are pure binomial noise."""
    rng = np.random.default_rng(seed)
    for i in range(k):
        yield StreamBatch(
            rng.uniform(size=(t, n)), rng.integers(2, size=t),
            np.ones(t, dtype=bool), i,
        )


class TestRunPrequential:
    def test_single_batch_single_metrics_row(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=0))
        report = run_prequential(model, coin_flip_batches(k=1))
        assert len(report.batches) == 1
        assert report.batches[0].timestamp == 0

    def test_untrained_model_scores_chance(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=1))
        batches = list(coin_flip_batches(k=1, t=1000, seed=1))
        probs, predicted = model.predict_batch(batches[0].features)
        rate = float(np.mean(predicted == batches[0].labels))
        assert abs(rate - 0.5) < 3 * np.sqrt(0.25 / 1000)

    def test_frozen_model_rates_statistically_flat(self):
        config = DevdanConfig(
            enable_generative=False, enable_grow=False, enable_prune=False,
            lr_discriminative=0.0, seed=2,
        )
        model = DevdanModel(3, 2, config)
        report = run_prequential(model, coin_flip_batches(k=20, t=1000, seed=2))
        rates = report.rates
        assert report.batches[-1].width_after == 1
        # frozen model: batch rates are iid noise around a constant level
        assert abs(rates[:10].mean() - rates[10:].mean()) < 4 * np.sqrt(2 * 0.25 / 10_000)

    def test_test_pass_precedes_training(self):
        # an easy drifting rule: a model scored after training would be right
        # on batch 0; prequential scoring sees the untrained network first
        model = DevdanModel(3, 2, DevdanConfig(seed=3))
        rng = np.random.default_rng(3)
        feats = rng.uniform(size=(1000, 3))
        labels = (feats[:, 0] > 0.5).astype(np.int64)
        stream = [StreamBatch(feats, labels, np.ones(1000, dtype=bool), 0)]
        report = run_prequential(model, stream)
        after_probs, after_pred = model.predict_batch(feats)
        rate_after = float(np.mean(after_pred == labels))
        assert rate_after > report.batches[0].classification_rate + 0.1

    def test_hygiene_verification_passes(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=4))
        report = run_prequential(
            model, coin_flip_batches(k=3), verify_hygiene=True
        )
        assert len(report.batches) == 3

    def test_prediction_mutates_nothing(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=5))
        batch = next(iter(coin_flip_batches(k=1)))
        before = state_hash(model)
        model.predict_batch(batch.features)
        model.predict(batch.features[0])
        assert state_hash(model) == before

    def test_timing_fields_nonnegative(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=6))
        report = run_prequential(model, coin_flip_batches(k=2))
        for b in report.batches:
            assert b.train_seconds >= 0.0 and b.test_seconds >= 0.0

    def test_dimension_mismatch_fails_before_any_training(self):
        from devdan.errors import ShapeError

        model = DevdanModel(5, 2, DevdanConfig(seed=7))
        before = state_hash(model)
        with pytest.raises(ShapeError):
            run_prequential(model, coin_flip_batches(k=2, n=3))
        assert state_hash(model) == before


class TestParameterCount:
    def test_hand_count(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=7))
        assert model.width == 1
        assert parameter_count(model) == 11  # 3 + 1 + 3 + 2 + 2

    def test_grows_by_n_plus_one_plus_m(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=8))
        before = parameter_count(model)
        model._grow_discriminative()
        assert parameter_count(model) == before + 3 + 1 + 2

    def test_matches_checkpoint_element_count(self):
        model = DevdanModel(4, 3, DevdanConfig(seed=9))
        model._grow_discriminative()
        doc = model_to_dict(model)
        elements = (
            sum(len(row) for row in doc["w"]) + len(doc["b"]) + len(doc["c"])
            + sum(len(row) for row in doc["theta"]) + len(doc["eta"])
        )
        assert parameter_count(model) == elements


class TestReportMath:
    def test_summary_recomputable_from_rows(self, tmp_path):
        report, _ = run_single(
            DatasetSpec(source="sea", total_samples=5000, batch_size=1000),
            DevdanConfig(), seed=0,
        )
        rates = np.array([b.classification_rate for b in report.batches])
        assert abs(report.mean_rate - rates.mean()) < 1e-12
        assert abs(report.std_rate - rates.std()) < 1e-12
        path = tmp_path / "r.csv"
        write_batch_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        parsed = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_array_equal(parsed, rates)

    def test_csv_deterministic_under_null_clock(self, tmp_path):
        ds = DatasetSpec(source="sea", total_samples=3000, batch_size=1000)
        paths = []
        for tag in ("a", "b"):
            report, _ = run_single(ds, DevdanConfig(), seed=3, clock=null_clock)
            path = tmp_path / f"{tag}.csv"
            write_batch_csv(report, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestPredictCache:
    def test_cache_hit_consumed_once(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=10))
        cache = PredictCache(model)
        feats = np.random.default_rng(10).uniform(size=(8, 3))
        probs = cache(feats)
        hit = cache.take(feats)
        np.testing.assert_array_equal(hit, probs)
        assert cache.take(feats) is None

    def test_cache_miss_on_other_batch(self):
        model = DevdanModel(3, 2, DevdanConfig(seed=11))
        cache = PredictCache(model)
        rng = np.random.default_rng(11)
        cache(rng.uniform(size=(4, 3)))
        assert cache.take(rng.uniform(size=(4, 3))) is None

    def test_cache_miss_on_new_array_at_a_freed_address(self):
        # an id-keyed cache answered for a freed batch when a new array landed
        # at its address
        model = DevdanModel(3, 2, DevdanConfig(seed=12))
        cache = PredictCache(model)
        feats = np.random.default_rng(12).uniform(size=(4, 3))
        cache(feats)
        address = id(feats)
        del feats
        others = []  # kept alive, so every new array gets a new address
        for _ in range(1000):
            others.append(np.zeros((4, 3)))
            if id(others[-1]) == address:
                break
        assert cache.take(others[-1]) is None


class TestRunSingle:
    def test_confidence_selection_end_to_end(self):
        ds = DatasetSpec(
            source="sea", total_samples=4000, batch_size=1000,
            label_fraction=0.5, selection_mode="confidence", delta=0.7,
        )
        report, model = run_single(ds, DevdanConfig(), seed=12)
        assert len(report.batches) == 4
        assert np.isfinite(report.mean_rate)
        assert model.width >= 1

    def test_deterministic_reports(self):
        ds = DatasetSpec(source="sea", total_samples=3000, batch_size=1000)
        r1, m1 = run_single(ds, DevdanConfig(), seed=13, clock=null_clock)
        r2, m2 = run_single(ds, DevdanConfig(), seed=13, clock=null_clock)
        assert state_hash(m1) == state_hash(m2)
        assert [b.classification_rate for b in r1.batches] == [
            b.classification_rate for b in r2.batches
        ]


class TestRunSuite:
    def small_ds(self):
        return DatasetSpec(source="sea", total_samples=3000, batch_size=1000)

    def test_five_seeds_five_rows_plus_summary(self):
        result = run_suite(self.small_ds(), DevdanConfig(), seeds=range(5))
        assert len(result["rows"]) == 5
        summary = result["summary"]["default"]
        assert summary["runs"] == 5 and summary["failures"] == 0
        assert summary["min_rate"] <= summary["mean_rate"]

    def test_ablation_grid_row_structure(self):
        configs = {
            "full": DevdanConfig(),
            "no_generative": DevdanConfig(enable_generative=False),
            "no_grow": DevdanConfig(enable_grow=False),
            "no_prune": DevdanConfig(enable_prune=False),
        }
        result = run_suite(self.small_ds(), configs, seeds=[0, 1])
        assert len(result["rows"]) == 8
        assert set(result["summary"]) == set(configs)

    def test_identical_seeds_identical_tables(self):
        a = run_suite(self.small_ds(), DevdanConfig(), seeds=[0, 1], clock=null_clock)
        b = run_suite(self.small_ds(), DevdanConfig(), seeds=[0, 1], clock=null_clock)
        assert a["summary"] == b["summary"]

    def test_failed_run_recorded_suite_continues(self):
        configs = {
            "good": DevdanConfig(),
            "broken": DevdanConfig(momentum=2.0),  # fails validation at run time
        }
        result = run_suite(self.small_ds(), configs, seeds=[0])
        assert result["summary"]["good"]["failures"] == 0
        assert result["summary"]["broken"]["failures"] == 1
        broken = [r for r in result["rows"] if r.config_name == "broken"][0]
        assert broken.report is None and "momentum" in broken.error

    def test_summary_json_document(self, tmp_path):
        ds = self.small_ds()
        result = run_suite(ds, DevdanConfig(), seeds=[0])
        path = tmp_path / "summary.json"
        write_summary_json(path, ds, DevdanConfig(), [0], result)
        doc = json.loads(path.read_text())
        assert doc["dataset"]["source"] == "sea"
        assert doc["configs"]["default"]["lr_discriminative"] == 0.01
        assert doc["runs"][0]["seed"] == 0
        assert "mean_rate" in doc["runs"][0]

    def test_parallel_jobs_match_sequential(self):
        ds = self.small_ds()
        seq = run_suite(ds, DevdanConfig(), seeds=[0, 1])
        par = run_suite(ds, DevdanConfig(), seeds=[0, 1], jobs=2)
        for name in ("default",):
            assert seq["summary"][name]["mean_rate"] == par["summary"][name]["mean_rate"]
            assert seq["summary"][name]["final_widths"] == par["summary"][name]["final_widths"]
