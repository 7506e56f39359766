"""Prequential test-then-train evaluation.

Every batch is first classified in full with the current model (that is the
score that counts), then handed to the trainer. Per-batch rows aggregate into
a report; a suite runner repeats (config, seed) combinations and summarizes
across seeds.
"""
from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import state_hash
from .errors import DevdanError
from .model import DevdanConfig, DevdanModel
from .streams import DatasetSpec, batchify, materialize

CSV_HEADER = "k,cr,gen_loss,disc_loss,R,grows,prunes,train_s,test_s"


@dataclass
class BatchMetrics:
    timestamp: int
    classification_rate: float
    generative_loss: float
    discriminative_loss: float
    width_after: int
    grow_events: int
    prune_events: int
    train_seconds: float
    test_seconds: float

    def csv_row(self) -> str:
        return ",".join(
            repr(v) if isinstance(v, float) else str(v)
            for v in (
                self.timestamp, self.classification_rate, self.generative_loss,
                self.discriminative_loss, self.width_after, self.grow_events,
                self.prune_events, self.train_seconds, self.test_seconds,
            )
        )


@dataclass
class PrequentialReport:
    batches: list = field(default_factory=list)

    @property
    def rates(self) -> np.ndarray:
        return np.array([b.classification_rate for b in self.batches])

    @property
    def mean_rate(self) -> float:
        return float(self.rates.mean())

    @property
    def std_rate(self) -> float:
        return float(self.rates.std())

    @property
    def final_width(self) -> int:
        return self.batches[-1].width_after

    def summary(self) -> dict:
        return {
            "batches": len(self.batches),
            "mean_rate": self.mean_rate,
            "std_rate": self.std_rate,
            "final_width": self.final_width,
            "grow_events": sum(b.grow_events for b in self.batches),
            "prune_events": sum(b.prune_events for b in self.batches),
            "train_seconds": sum(b.train_seconds for b in self.batches),
            "test_seconds": sum(b.test_seconds for b in self.batches),
        }


def parameter_count(model: DevdanModel) -> int:
    """Free parameters: encoder weight and biases plus head weight and bias."""
    n, r, m = model.n_in, model.width, model.n_classes
    return n * r + r + n + r * m + m


class PredictCache:
    """Model-prediction callback that remembers its last answer.

    Confidence-based label selection runs the classifier while a batch is
    being materialized; the harness then reuses that same answer for scoring
    instead of predicting twice. The answer belongs to the very array it was
    computed from: the cache holds that array, so a later array cannot take
    its place at the same address."""

    def __init__(self, model: DevdanModel):
        self.model = model
        self._features = None
        self._probs = None

    def __call__(self, features: np.ndarray) -> np.ndarray:
        probs, _ = self.model.predict_batch(features)
        self._features = features
        self._probs = probs
        return probs

    def take(self, features: np.ndarray):
        if self._features is features:
            probs, self._features, self._probs = self._probs, None, None
            return probs
        return None


def run_prequential(
    model: DevdanModel,
    stream,
    clock=time.perf_counter,
    predict_cache: PredictCache | None = None,
    verify_hygiene: bool = False,
) -> PrequentialReport:
    """Drive the test-then-train loop over a StreamBatch iterable.

    clock is injectable so reproducibility checks can pin the timing columns;
    verify_hygiene hashes the full model state around every test pass and
    raises if prediction mutated anything."""
    report = PrequentialReport()
    for batch in stream:
        before = state_hash(model) if verify_hygiene else None
        t0 = clock()
        probs = predict_cache.take(batch.features) if predict_cache else None
        if probs is None:
            probs, predicted = model.predict_batch(batch.features)
        else:
            predicted = np.argmax(probs, axis=1)
        rate = float(np.mean(predicted == batch.labels))
        t1 = clock()
        if verify_hygiene and state_hash(model) != before:
            raise DevdanError(
                f"test pass mutated model state at timestamp {batch.timestamp}"
            )
        t2 = clock()
        train = model.train_batch(batch)
        t3 = clock()
        report.batches.append(
            BatchMetrics(
                timestamp=batch.timestamp,
                classification_rate=rate,
                generative_loss=train.generative_loss,
                discriminative_loss=train.discriminative_loss,
                width_after=train.width_after,
                grow_events=train.grow_events,
                prune_events=train.prune_events,
                train_seconds=t3 - t2,
                test_seconds=t1 - t0,
            )
        )
    return report


def write_batch_csv(report: PrequentialReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in report.batches:
            fh.write(row.csv_row() + "\n")


def run_single(
    dataset: DatasetSpec,
    config: DevdanConfig,
    seed: int,
    clock=time.perf_counter,
    verify_hygiene: bool = False,
):
    """One seeded end-to-end run; returns (report, model).

    The run seed spawns independent child generators for the stream and the
    model, so the two never share draws."""
    stream_rng, model_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )
    feats, labels, n_in, n_classes = materialize(dataset, stream_rng)
    model = DevdanModel(n_in, n_classes, config, rng=model_rng)
    cache = PredictCache(model) if dataset.selection_mode == "confidence" else None
    stream = batchify(
        feats,
        labels,
        dataset.batch_size,
        dataset.label_fraction,
        dataset.selection_mode,
        rng=stream_rng,
        confidence_cb=cache,
        delta=dataset.delta,
    )
    report = run_prequential(
        model, stream, clock=clock, predict_cache=cache, verify_hygiene=verify_hygiene
    )
    return report, model


@dataclass
class SuiteRow:
    """One suite run: its report and final model, or the traceback it failed with."""

    config_name: str
    seed: int
    report: PrequentialReport | None
    model: DevdanModel | None
    error: str | None = None


def run_suite(
    dataset: DatasetSpec,
    configs,
    seeds,
    clock=time.perf_counter,
    jobs: int = 1,
) -> dict:
    """Run every (config, seed) pair and summarize.

    configs is a mapping name -> DevdanConfig (a bare config is treated as
    {"default": config}). A failed run is recorded and the suite continues.
    Returns {"rows": [SuiteRow...], "summary": {name: {...}}}."""
    if isinstance(configs, DevdanConfig):
        configs = {"default": configs}
    items = [(name, cfg, seed) for name, cfg in configs.items() for seed in seeds]
    rows = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_suite_worker, dataset, cfg, name, seed)
                for name, cfg, seed in items
            ]
            rows = [f.result() for f in futures]
    else:
        for name, cfg, seed in items:
            rows.append(_suite_worker(dataset, cfg, name, seed, clock))
    summary = {}
    for name in configs:
        good = [r for r in rows if r.config_name == name and r.report is not None]
        entry = {
            "runs": sum(r.config_name == name for r in rows),
            "failures": sum(r.config_name == name and r.report is None for r in rows),
        }
        if good:
            means = np.array([r.report.mean_rate for r in good])
            entry.update(
                mean_rate=float(means.mean()),
                min_rate=float(means.min()),
                std_rate=float(means.std()),
                final_widths=[r.report.final_width for r in good],
            )
        summary[name] = entry
    return {"rows": rows, "summary": summary}


def _suite_worker(dataset, config, name, seed, clock=time.perf_counter):
    try:
        report, model = run_single(dataset, config, seed, clock=clock)
        return SuiteRow(name, seed, report, model)
    except Exception:
        return SuiteRow(name, seed, None, None, error=traceback.format_exc())


def write_summary_json(
    path, dataset: DatasetSpec, configs, seeds, result, effective_config: dict | None = None
) -> None:
    """Summary document with the model configurations echoed for provenance;
    the run's full effective configuration, when given, is the last key."""
    import dataclasses as _dc

    if isinstance(configs, DevdanConfig):
        configs = {"default": configs}
    doc = {
        "dataset": _dc.asdict(dataset),
        "configs": {name: _dc.asdict(cfg) for name, cfg in configs.items()},
        "seeds": list(seeds),
        "summary": result["summary"],
        "runs": [
            {
                "config": r.config_name,
                "seed": r.seed,
                "error": r.error,
                **(r.report.summary() if r.report else {}),
            }
            for r in result["rows"]
        ],
    }
    if effective_config is not None:
        doc["effective_config"] = effective_config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, default=_jsonable)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (tuple, np.ndarray)):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")
