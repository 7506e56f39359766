"""Prequential benchmark of devdan: closed-loop test-then-train over seeded streams.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):

    sea_full             SEA, 3 inputs, all labels, 4 concepts per 20k-row stream
    hyperplane_csv_half  drifting hyperplane d=8, read back from CSV, 50% labels
    suite_cli            `devdan run` (2 seeds, process pool, checkpoints), then
                         `devdan inspect`, called in-process through cli.main

Each workload is a closed loop with one caller: the next batch is read only
after the previous one has been tested and trained. With --trace 0 the run
measures the end-to-end metrics: it runs seeded episodes back to back until
--seconds have passed and at least MIN_EPISODES have run, and before each one
sets up once in a fresh process for `setup_s` (at least SETUP_PROBES times).
With --trace 1 it runs one untraced and one traced episode on the same inputs,
plus the stage microbenchmark, and reports the per-layer metrics.

Every episode is checked: its final state_hash, mean_rate, width, grows and
prunes against references.json for recorded seeds (only on the numerics stack
the references were recorded on), its rate against the workload's floor, and
a checkpoint round trip against the in-memory hash. A failed check or an
exception counts as a failed operation. The last stdout line is the JSON
result; the exit code is 0 only when every operation passed.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads, so the two
# suite workers never run more threads than there are cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import devdan
    from devdan import checkpoint, cli, model, prequential, streams
except ImportError as err:
    sys.exit(f"benchmark: cannot import devdan from {ROOT / 'src'}: {err}")
if Path(devdan.__file__).resolve().parent != ROOT / "src" / "devdan":
    sys.exit(f"benchmark: devdan imported from {devdan.__file__}, not from {ROOT / 'src'}")

WORKLOADS = ("sea_full", "hyperplane_csv_half", "suite_cli")
ROWS = {"sea_full": 20_000, "hyperplane_csv_half": 20_000, "suite_cli": 10_000}
BATCH = {"sea_full": 1000, "hyperplane_csv_half": 1000, "suite_cli": 500}
SUITE_SEEDS = 2
SUITE_JOBS = min(2, os.cpu_count() or 1)
SETUP_PROBES = 5
# The end-to-end metrics gated in BENCHMARK.json; the others are printed only.
# On the 2-vCPU VM this was built on, the host's speed switches between two
# states that last seconds to minutes, about 1.5x apart. Over ten seeds the
# spread (interquartile range / median) of samples_per_s, batch_ms_p50,
# test_ms_p50 and test_ms_p90 exceeded the largest allowed bound (0.25) in at
# least one of six sets; batch_ms_p90 follows the slow state, which nearly every
# run visits, and stayed at or below 0.20.
GATED = ("setup_s", "batch_ms_p90", "mean_rate", "peak_rss_mb")
# mean_rate averages the first MIN_EPISODES streams, so it does not depend on
# how many more a run fits into --seconds
MIN_EPISODES = 3
HYPERPLANE_DIM = 8
HYPERPLANE_CONCEPTS = (
    ((1.0,) * 8, 4.0),
    ((1.5, 1.5, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5), 4.0),
)
REFERENCES = BENCH_DIR / "references.json"
OUTCOME_FIELDS = ("state_hash", "mean_rate", "final_width", "grows", "prunes")


def sea_schedule(rows: int):
    """The paper's four SEA concepts (thresholds 4, 7, 4, 7), one per quarter."""
    q = rows // 4
    return ((0, 4.0), (q, 7.0), (2 * q, 4.0), (3 * q, 7.0))


def stream_seed(seed: int, episode: int) -> int:
    """Episodes of one run draw distinct streams; the key is what references name."""
    return seed * 1000 + episode


def episode_rngs(key: int):
    """Independent generators for stream rows, label selection and the model."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(key).spawn(3)]


# ----------------------------------------------------------------- provenance

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def numerics_stack() -> dict:
    """What the bits of a state_hash depend on: interpreter, numpy, BLAS, and
    the CPU, whose feature flags pick numpy's and OpenBLAS's kernels."""
    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config(mode=) needs numpy >= 1.25
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    cpu = {"model name": "", "flags": ""}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() in cpu and not cpu[key.strip()]:
                cpu[key.strip()] = value.strip()
    flags = hashlib.sha256(" ".join(sorted(cpu["flags"].split())).encode()).hexdigest()[:16]
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpu": cpu["model name"] or "unknown", "cpu_flags": flags}


def fingerprint() -> dict:
    return {
        **numerics_stack(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
    }


# -------------------------------------------------------------------- inputs

def csv_path(work: Path, key: int) -> Path:
    return work / f"hyperplane_{key}.csv"


def prepare_inputs(workload: str, key: int, rows: int, work: Path) -> None:
    """Benchmark-side input preparation, outside every timer: the CSV file."""
    if workload != "hyperplane_csv_half":
        return
    feats, labels = streams.gen_hyperplane(
        rows, HYPERPLANE_DIM, HYPERPLANE_CONCEPTS, rng=episode_rngs(key)[0]
    )
    header = ",".join([f"f{j}" for j in range(HYPERPLANE_DIM)] + ["label"])
    np.savetxt(csv_path(work, key), np.column_stack([feats, labels]),
               fmt=["%.17g"] * HYPERPLANE_DIM + ["%d"], delimiter=",",
               header=header, comments="")


def open_stream(workload: str, key: int, rows: int, work: Path):
    """Set-up of one stream episode: rows, model and the batch iterator."""
    gen_rng, select_rng, model_rng = episode_rngs(key)
    if workload == "sea_full":
        spec = streams.DatasetSpec(source="sea", total_samples=rows, batch_size=BATCH[workload],
                                   sea_schedule=sea_schedule(rows))
    elif workload == "hyperplane_csv_half":
        spec = streams.DatasetSpec(source="csv", csv_path=str(csv_path(work, key)),
                                   total_samples=rows, batch_size=BATCH[workload],
                                   label_fraction=0.5)
    else:  # suite_cli: the stream each suite worker builds for one seed
        spec = streams.DatasetSpec(source="sea", total_samples=rows, batch_size=BATCH[workload])
    feats, labels, n_in, n_classes = streams.materialize(spec, gen_rng)
    net = model.DevdanModel(n_in, n_classes, model.DevdanConfig(seed=key), rng=model_rng)
    batches = streams.batchify(feats, labels, spec.batch_size, spec.label_fraction, rng=select_rng)
    return net, batches, feats.shape[0]


# ------------------------------------------------------------------ episodes

@dataclass
class Outcome:
    """Final state of one seeded prequential run."""

    key: int
    state_hash: str
    mean_rate: float
    final_width: int
    grows: int
    prunes: int


@dataclass
class Episode:
    rows: int = 0
    loop_s: float = 0.0
    test_ms: list = field(default_factory=list)
    batch_ms: list = field(default_factory=list)
    checkpoint_bytes: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _stopwatch(fn, laps: list):
    def timed(*args):
        t0 = time.perf_counter()
        result = fn(*args)
        laps.append(time.perf_counter() - t0)
        return result
    return timed


def stream_episode(workload: str, key: int, rows: int, work: Path) -> Episode:
    ep = Episode()
    net, batches, ep.rows = open_stream(workload, key, rows, work)
    test_s, train_s = [], []
    # timed around predict_batch itself, not the harness's own test window
    net.predict_batch = _stopwatch(net.predict_batch, test_s)
    net.train_batch = _stopwatch(net.train_batch, train_s)
    t0 = time.perf_counter()
    report = prequential.run_prequential(net, batches)
    ep.loop_s = time.perf_counter() - t0
    del net.predict_batch, net.train_batch
    ep.test_ms = [t * 1e3 for t in test_s]
    ep.batch_ms = [(a + b) * 1e3 for a, b in zip(test_s, train_s)]
    if len(report.batches) != ep.rows // BATCH[workload]:
        ep.problems.append(f"stream {key}: {len(report.batches)} batches scored")
    s = report.summary()
    digest = checkpoint.state_hash(net)
    ep.outcomes.append(Outcome(key, digest, s["mean_rate"], s["final_width"],
                               s["grow_events"], s["prune_events"]))
    path = work / f"model_{key}.ckpt.json"
    checkpoint.save_checkpoint(net, path)
    ep.checkpoint_bytes.append(path.stat().st_size)
    if checkpoint.state_hash(checkpoint.load_checkpoint(path)) != digest:
        ep.problems.append(f"stream {key}: checkpoint round trip changed the state hash")
    return ep


def suite_episode(key: int, rows: int, work: Path) -> Episode:
    """`devdan run` over SUITE_SEEDS seeds with checkpoints, then `devdan inspect`."""
    ep = Episode()
    seeds = [2 * key + i for i in range(SUITE_SEEDS)]
    out, ck = work / f"suite_{key}", work / f"suite_{key}_ck"
    argv = ["run", "--dataset", "sea", "--samples", str(rows), "--batch", str(BATCH["suite_cli"]),
            "--seeds", str(SUITE_SEEDS), "--seed-base", str(seeds[0]), "--jobs", str(SUITE_JOBS),
            "--out", str(out), "--checkpoint-out", str(ck)]
    first_ckpt = ck / f"run_seed{seeds[0]}.ckpt.json"
    run_out, inspect_out = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(run_out):
        code = cli.main(argv)
    with contextlib.redirect_stdout(inspect_out):
        inspect_code = cli.main(["inspect", str(first_ckpt)])
    ep.loop_s = time.perf_counter() - t0
    ep.rows = rows * SUITE_SEEDS
    if code != 0 or inspect_code != 0:
        ep.problems.append(f"suite {key}: exit codes run={code} inspect={inspect_code}")
        return ep
    runs = {r["seed"]: r for r in json.loads((out / "run_summary.json").read_text())["runs"]}
    for seed in seeds:
        r = runs[seed]
        path = ck / f"run_seed{seed}.ckpt.json"
        ep.checkpoint_bytes.append(path.stat().st_size)
        loaded = checkpoint.load_checkpoint(path)
        ep.outcomes.append(Outcome(seed, checkpoint.state_hash(loaded), r["mean_rate"],
                                   r["final_width"], r["grow_events"], r["prune_events"]))
        if loaded.width != r["final_width"]:
            ep.problems.append(f"seed {seed}: checkpoint width {loaded.width} != summary {r['final_width']}")
        with open(out / f"run_seed{seed}.csv", newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        if len(table) != rows // BATCH["suite_cli"]:
            ep.problems.append(f"seed {seed}: {len(table)} CSV rows")
        ep.test_ms += [float(t["test_s"]) * 1e3 for t in table]
        ep.batch_ms += [(float(t["test_s"]) + float(t["train_s"])) * 1e3 for t in table]
    inspected = json.loads(inspect_out.getvalue())
    if inspected["hidden_nodes"] != runs[seeds[0]]["final_width"]:
        ep.problems.append(f"inspect reports {inspected['hidden_nodes']} hidden nodes")
    return ep


def run_episode(workload: str, key: int, rows: int, work: Path) -> Episode:
    """One operation: an exception is recorded as a failure, not raised."""
    try:
        if workload == "suite_cli":
            return suite_episode(key, rows, work)
        return stream_episode(workload, key, rows, work)
    except Exception:  # the run goes on and reports this operation as failed
        return Episode(problems=[f"stream {key} raised:\n{traceback.format_exc()}"])


# -------------------------------------------------------------------- checks

def load_references(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def check(workload: str, ep: Episode, refs: dict, rows: int) -> None:
    """Append to ep.problems every outcome that misses its floor or reference."""
    floor = refs.get("floors", {}).get(workload)
    block = refs.get("runs", {}).get(workload, {})
    for o in ep.outcomes:
        if floor is not None and rows == ROWS[workload] and o.mean_rate < floor:
            ep.problems.append(f"stream {o.key}: mean_rate {o.mean_rate:.4f} below floor {floor}")
        ref = block.get("outcomes", {}).get(str(o.key)) if block.get("rows") == rows else None
        if ref is not None:
            got = asdict(o)
            for name in OUTCOME_FIELDS:
                if got[name] != ref[name]:
                    ep.problems.append(f"stream {o.key}: {name} {got[name]!r} != reference {ref[name]!r}")


def record_references(path: Path, workload: str, rows: int, episodes) -> None:
    refs = load_references(path)
    if refs.get("fingerprint") not in (None, numerics_stack()):
        raise SystemExit("benchmark: references were recorded on another numerics stack")
    refs["fingerprint"] = numerics_stack()
    block = refs.setdefault("runs", {}).setdefault(workload, {"rows": rows, "outcomes": {}})
    if block["rows"] != rows:
        raise SystemExit(f"benchmark: references for {workload} are for {block['rows']} rows")
    for ep in episodes:
        if not ep.problems:
            for o in ep.outcomes:
                block["outcomes"][str(o.key)] = {k: getattr(o, k) for k in OUTCOME_FIELDS}
    block["outcomes"] = dict(sorted(block["outcomes"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(refs, indent=1) + "\n")


# ------------------------------------------------------------------- metrics

def setup_time(args, work: Path) -> float:
    """One `setup_s` sample: process start to first batch ready, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--rows", str(args.rows), "--setup-probe", str(work)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def setup_probe(args) -> int:
    """Child side of setup_time: set up episode 0 and report when batch 0 is ready."""
    _, batches, _ = open_stream(args.workload, stream_seed(args.seed, 0), args.rows,
                                Path(args.setup_probe))
    next(batches)
    print(repr(time.monotonic()))
    return 0


def end_to_end(setup: list, episodes: list) -> dict:
    """name -> (value, unit, sample count)."""
    rows = sum(e.rows for e in episodes)
    loop = sum(e.loop_s for e in episodes)
    batch = [t for e in episodes for t in e.batch_ms]
    test = [t for e in episodes for t in e.test_ms]
    rates = [o.mean_rate for e in episodes[:MIN_EPISODES] for o in e.outcomes]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "samples_per_s": (rows / loop, "rows/s", rows),
        "batch_ms_p50": (float(np.percentile(batch, 50)), "ms", len(batch)),
        "batch_ms_p90": (float(np.percentile(batch, 90)), "ms", len(batch)),
        "test_ms_p50": (float(np.percentile(test, 50)), "ms", len(test)),
        "test_ms_p90": (float(np.percentile(test, 90)), "ms", len(test)),
        "mean_rate": (statistics.fmean(rates), "fraction", len(rates)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def per_layer(tracer, traced: Episode, untraced: Episode, stage_us: dict) -> dict:
    """name -> (value, unit) from the traced run's spans and counters."""
    totals = tracer.totals()
    c = tracer.counters

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_us(*names):
        return ratio(total(*names), calls(*names)) * 1e6

    rows, steps, main = c["rows_trained"], c["steps"], total("cli.main")
    monitors = ("monitors.node_stats", "monitors.snapshot_gen", "monitors.snapshot_disc",
                "monitors.chart", "monitors.weakest")
    speed = ratio(traced.rows, traced.loop_s)
    base = ratio(untraced.rows, untraced.loop_s)
    metrics = {
        "numerics.sigmoid_calls_per_row": (ratio(calls("numerics.sigmoid"), rows), "count"),
        "numerics.softmax_calls_per_row": (ratio(calls("numerics.softmax"), rows), "count"),
        "numerics.sigmoid_us": (mean_us("numerics.sigmoid"), "us"),
        "dae.mask_us": (mean_us("dae.mask"), "us"),
        "dae.grad_us": (mean_us("dae.grad"), "us"),
        "dae.sgd_us": (mean_us("dae.sgd"), "us"),
        "dae.edit_us": (mean_us("dae.edit"), "us"),
        "dae.edit_calls": (calls("dae.edit"), "count"),
        "monitors.node_stats_us": (mean_us("monitors.node_stats"), "us"),
        "monitors.snapshot_gen_us": (mean_us("monitors.snapshot_gen"), "us"),
        "monitors.snapshot_disc_us": (mean_us("monitors.snapshot_disc"), "us"),
        "monitors.chart_us": (ratio(total("monitors.chart"), steps) * 1e6, "us"),
        "monitors.share": (ratio(total(*monitors), total("model.train_batch")), "fraction"),
        "model.gen_step_us": (mean_us("model.gen_step"), "us"),
        "model.disc_step_us": (mean_us("model.disc_step"), "us"),
        "model.self_us": (ratio(own("model.gen_step", "model.disc_step"), steps) * 1e6, "us"),
        "model.edit_step_us": (mean_us("model.edit_step"), "us"),
        "model.gen_steps": (calls("model.gen_step"), "count"),
        "model.disc_steps": (calls("model.disc_step"), "count"),
        "model.grow_events": (c["grows"], "count"),
        "model.prune_events": (c["prunes"], "count"),
        "model.final_width": (c["final_width"], "count"),
        "model.mean_width": (ratio(c["width_sum"], steps), "count"),
        "streams.materialize_s": (total("streams.materialize"), "s"),
        "streams.load_csv_share": (ratio(total("streams.load_csv"), total("streams.materialize")), "fraction"),
        "streams.batchify_us": (mean_us("streams.batchify"), "us"),
        "prequential.test_us_per_row": (ratio(total("model.predict_batch"), c["rows_predicted"]) * 1e6, "us"),
        "prequential.harness_self_ms": (own("prequential.run_prequential") * 1e3, "ms"),
        "prequential.run_single_calls": (calls("prequential.run_single"), "count"),
        "checkpoint.save_ms": (mean_us("checkpoint.save") / 1e3, "ms"),
        "checkpoint.load_ms": (mean_us("checkpoint.load") / 1e3, "ms"),
        "checkpoint.state_hash_us": (mean_us("checkpoint.state_hash"), "us"),
        "checkpoint.bytes": (statistics.fmean(traced.checkpoint_bytes), "bytes"),
        "cli.suite_share": (ratio(total("prequential.run_suite"), main), "fraction"),
        "cli.write_share": (ratio(total("prequential.write"), main), "fraction"),
        "cli.checkpoint_share": (ratio(total("prequential.run_single", "checkpoint.save"), main), "fraction"),
        "trace.overhead_ratio": (ratio(speed, base), "ratio"),
    }
    metrics.update({name: (us, "us") for name, us in stage_us.items()})
    return metrics


# ---------------------------------------------------------------------- runs

def timed_run(args, work: Path, refs: dict):
    """--trace 0: episodes until --seconds have passed, each followed by a
    set-up probe, so that the probes sample the whole run."""
    prepare_inputs(args.workload, stream_seed(args.seed, 0), args.rows, work)
    setup, episodes = [], []
    deadline = time.perf_counter() + args.seconds
    while len(episodes) < MIN_EPISODES or time.perf_counter() < deadline:
        setup.append(setup_time(args, work))
        key = stream_seed(args.seed, len(episodes))
        prepare_inputs(args.workload, key, args.rows, work)
        ep = run_episode(args.workload, key, args.rows, work)
        check(args.workload, ep, refs, args.rows)
        episodes.append(ep)
        print(f"episode {len(episodes) - 1}: stream {key}, {ep.rows} rows in {ep.loop_s:.3f} s, "
              + (", ".join(f"{o.key}: rate {o.mean_rate:.4f} width {o.final_width} "
                           f"grows {o.grows} prunes {o.prunes}" for o in ep.outcomes) or "no outcome"))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(args, work))
    good = [e for e in episodes if not e.problems]
    metrics = {}
    if good:
        for name, (value, unit, n) in end_to_end(setup, good).items():
            gated = name in GATED
            print(f"  {name:<16} {value:14.6f} {unit:<8} (n={n}){'' if gated else ' not gated'}")
            if gated:
                metrics[name] = {"value": value, "unit": unit}
    return episodes, metrics


def traced_run(args, work: Path, refs: dict):
    """--trace 1: untraced and traced episode on the same stream, then stages."""
    import spans
    import stages

    key = stream_seed(args.seed, 0)
    prepare_inputs(args.workload, key, args.rows, work)
    untraced = run_episode(args.workload, key, args.rows, work)
    tracer = spans.Tracer(f"{args.workload}-seed{args.seed}")
    with tracer.installed():
        traced = run_episode(args.workload, key, args.rows, work)
    episodes = [untraced, traced]
    for ep in episodes:
        check(args.workload, ep, refs, args.rows)
    if not untraced.problems and not traced.problems:
        a = [o.state_hash for o in untraced.outcomes]
        b = [o.state_hash for o in traced.outcomes]
        if a != b:
            traced.problems.append(f"traced state_hash {b} != untraced {a}")

    out_dir = ROOT / ".bench_traces"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"{tracer.run_id}.json"
    trace_file.write_text(json.dumps(tracer.document(fingerprint())) + "\n")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    print(f"  {'span':<28} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, (n, tot, own) in sorted(tracer.totals().items()):
        print(f"  {name:<28} {n:>9} {tot:>10.4f} {own:>10.4f}")

    metrics = {}
    if not untraced.problems and not traced.problems:
        stage_us = stages.run(args.seed, sea_schedule(ROWS["sea_full"]))
        print(stages.NOT_TIMED)
        for name, (value, unit) in per_layer(tracer, traced, untraced, stage_us).items():
            print(f"  {name:<32} {value:14.6f} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    return episodes, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--rows", type=int,
                        help="rows per stream (self-tests use small runs; "
                             "floors and references apply at the default size only)")
    parser.add_argument("--references", type=Path, default=REFERENCES)
    parser.add_argument("--record", action="store_true",
                        help="store this run's outcomes in the references file")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.rows is None:
        args.rows = ROWS[args.workload]
    if args.rows < 2 * BATCH[args.workload]:
        parser.error(f"--rows must be at least {2 * BATCH[args.workload]}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    print(f"fingerprint: {json.dumps(fingerprint())}")
    refs = load_references(args.references)
    if refs.get("fingerprint") not in (None, numerics_stack()):
        print("references were recorded on another numerics stack: only floors are checked")
        refs = {"floors": refs.get("floors", {})}
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = traced_run if args.trace else timed_run
        episodes, metrics = run(args, work, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record:
        record_references(args.references, args.workload, args.rows, episodes)
    failed = sum(bool(e.problems) for e in episodes)
    for e in episodes:
        for problem in e.problems:
            print(f"FAILED: {problem}")
    print(f"{args.workload}: failed {failed}/{len(episodes)} operations")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(episodes),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
