"""Prequential test-then-train evaluation.

Every batch is first classified in full with the current model (that is the
score that counts), then handed to the trainer. Per-batch rows aggregate into
a report; a suite runner repeats (config, seed) combinations and summarizes
across seeds.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import state_hash
from .errors import DevdanError
from .model import DevdanConfig, DevdanModel
from .state import COUNT, check, plain
from .streams import DatasetSpec, batchify, confidence_mask, materialize

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
        """The fields in CSV_HEADER order, floats at full precision."""
        return ",".join(repr(v) if isinstance(v, float) else str(v)
                        for v in dataclasses.astuple(self))


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


def run_prequential(
    model: DevdanModel,
    stream,
    clock=time.perf_counter,
    select=None,
    verify_hygiene: bool = False,
) -> PrequentialReport:
    """Drive the test-then-train loop over a StreamBatch iterable.

    Each batch is predicted once. A batch that arrives without a labeled
    mask gets select(probs) from that prediction, after the test pass and
    before training; without a select rule, training refuses it. clock is injectable so reproducibility checks can pin
    the timing columns; verify_hygiene hashes the full model state around
    every test pass and raises if prediction mutated anything."""
    report = PrequentialReport()
    for batch in stream:
        before = state_hash(model) if verify_hygiene else None
        t0 = clock()
        probs, predicted = model.predict_batch(batch.features)
        rate = float(np.mean(predicted == batch.labels))
        t1 = clock()
        if verify_hygiene and state_hash(model) != before:
            raise DevdanError(
                f"test pass mutated model state at timestamp {batch.timestamp}"
            )
        if batch.labeled_mask is None and select is not None:
            batch = dataclasses.replace(batch, labeled_mask=select(probs))
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
    """One seeded end-to-end run; returns (report, model), whose config is
    config with the run's seed.

    The run seed spawns independent child generators for the stream and the
    model, so the two never share draws."""
    stream_rng, model_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )
    feats, labels, n_in, n_classes = materialize(dataset, stream_rng)
    model = DevdanModel(n_in, n_classes, dataclasses.replace(config, seed=seed), rng=model_rng)
    stream = batchify(
        feats,
        labels,
        dataset.batch_size,
        dataset.label_fraction,
        dataset.selection_mode,
        rng=stream_rng,
    )
    select = None
    if dataset.selection_mode == "confidence":
        select = functools.partial(
            confidence_mask, fraction=dataset.label_fraction, delta=dataset.delta
        )
    report = run_prequential(
        model, stream, clock=clock, select=select, verify_hygiene=verify_hygiene
    )
    return report, model


@dataclass
class SuiteRow:
    """One suite run: its report and final model, or the traceback it failed
    with, and the training step (step_backend()) of the process it ran in."""

    config_name: str
    seed: int
    report: PrequentialReport | None
    model: DevdanModel | None
    error: str | None = None
    step: str | None = None


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
    Every run gets clock; with jobs > 1 it goes to a worker process, so it
    must be picklable (a module-level function).
    Returns {"rows": [SuiteRow...], "summary": {name: {...}}}."""
    check("jobs", COUNT, jobs)
    if isinstance(configs, DevdanConfig):
        configs = {"default": configs}
    args = [(dataset, cfg, name, seed, clock) for name, cfg in configs.items() for seed in seeds]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_suite_worker, *a) for a in args]
            rows = [f.result() for f in futures]
    else:
        rows = [_suite_worker(*a) for a in args]
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


def _suite_worker(dataset, config, name, seed, clock):
    from .kernel import step_backend  # imported at the first training step

    try:
        report, model = run_single(dataset, config, seed, clock=clock)
        return SuiteRow(name, seed, report, model, step=step_backend())
    except Exception:
        return SuiteRow(name, seed, None, None, traceback.format_exc(), step_backend())


def write_summary_json(
    path, dataset: DatasetSpec, configs, seeds, result, effective_config: dict | None = None
) -> None:
    """Summary document with the model configurations echoed for provenance,
    and with each run the training step it ran on; the run's full effective
    configuration, when given, is the last key."""
    if isinstance(configs, DevdanConfig):
        configs = {"default": configs}
    doc = {
        "dataset": dataclasses.asdict(dataset),
        "configs": {name: dataclasses.asdict(cfg) for name, cfg in configs.items()},
        "seeds": list(seeds),
        "summary": result["summary"],
        "runs": [
            {
                "config": r.config_name,
                "seed": r.seed,
                "step": r.step,
                "error": r.error,
                **(r.report.summary() if r.report else {}),
            }
            for r in result["rows"]
        ],
    }
    if effective_config is not None:
        doc["effective_config"] = effective_config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plain(doc), fh, indent=1)
        fh.write("\n")

