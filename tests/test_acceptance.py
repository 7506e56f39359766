"""Acceptance suite: one test per criterion; a PASS/FAIL line per criterion
is echoed in the terminal summary.

Run with `pytest tests/test_acceptance.py -v`. The expensive stream runs are
shared through session fixtures. The MNIST criterion only runs when
DEVDAN_MNIST_IMAGES / DEVDAN_MNIST_LABELS point at IDX files.
"""
import math
import os
import time

import numpy as np
import pytest

import conftest

from devdan.model import DevdanConfig, DevdanModel
from devdan.monitors import SpcTracker
from devdan.numerics import sigmoid
from devdan.prequential import run_single, write_batch_csv
from devdan.streams import DatasetSpec

from test_dae import central_differences, random_layer
from test_model import cross_entropy_at, frozen_config, randomize, widen

SEA_SEEDS = (0, 1, 2, 3, 4)
SEA_DRIFT_BATCHES = (25, 50, 75)


def criterion(number, ok, detail):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    conftest.acceptance_lines.append(line)  # echoed in the terminal summary
    assert ok, line


def sea_spec(**kw):
    return DatasetSpec(source="sea", total_samples=100_000, batch_size=1000, **kw)


@pytest.fixture(scope="session")
def sea_runs():
    """Default-config SEA runs, hygiene-verified, with wall time per seed."""
    out = {}
    for seed in SEA_SEEDS:
        t0 = time.perf_counter()
        report, model = run_single(
            sea_spec(), DevdanConfig(), seed, verify_hygiene=True
        )
        out[seed] = {
            "report": report,
            "model": model,
            "wall_seconds": time.perf_counter() - t0,
        }
    return out


@pytest.fixture(scope="session")
def sea_nogrow_runs():
    out = {}
    for seed in SEA_SEEDS:
        report, model = run_single(
            sea_spec(), DevdanConfig(enable_grow=False), seed
        )
        out[seed] = {"report": report, "model": model}
    return out


@pytest.fixture(scope="session")
def sea_half_label_runs():
    out = {}
    for seed in SEA_SEEDS:
        report, _ = run_single(
            sea_spec(label_fraction=0.5, selection_mode="random"),
            DevdanConfig(),
            seed,
        )
        out[seed] = {"report": report}
    return out


def test_criterion_1_sea_reproduction(sea_runs):
    details = []
    ok = True
    for seed in SEA_SEEDS:
        run = sea_runs[seed]
        rate = run["report"].mean_rate
        width = run["report"].final_width
        wall = run["wall_seconds"]
        seed_ok = rate >= 0.86 and 5 <= width <= 60 and wall < 60.0
        ok &= seed_ok
        details.append(f"seed {seed}: rate {rate:.4f}, final nodes {width}, {wall:.0f}s")
    criterion(1, ok, "SEA mean rate >= 0.86/seed, nodes in [5,60], < 60s | " + "; ".join(details))


def test_criterion_2_hyperplane_reproduction():
    ds = DatasetSpec(source="hyperplane", total_samples=120_000, batch_size=1000)
    details = []
    ok = True
    for seed in SEA_SEEDS:
        report, _ = run_single(ds, DevdanConfig(), seed)
        rate, width = report.mean_rate, report.final_width
        seed_ok = rate >= 0.87 and 4 <= width <= 40
        ok &= seed_ok
        details.append(f"seed {seed}: rate {rate:.4f}, final nodes {width}")
    criterion(2, ok, "Hyperplane rate >= 0.87/seed, nodes in [4,40] | " + "; ".join(details))


def test_criterion_3_mnist_optional():
    images = os.environ.get("DEVDAN_MNIST_IMAGES")
    labels = os.environ.get("DEVDAN_MNIST_LABELS")
    if not (images and labels):
        conftest.acceptance_lines.append(
            "CRITERION 3: SKIPPED - MNIST IDX files not supplied "
            "(set DEVDAN_MNIST_IMAGES/DEVDAN_MNIST_LABELS)"
        )
        pytest.skip("MNIST IDX files not supplied (set DEVDAN_MNIST_IMAGES/LABELS)")
    ds = DatasetSpec(
        source="idx", idx_images=images, idx_labels=labels,
        total_samples=70_000, batch_size=1000,
    )
    t0 = time.perf_counter()
    report, _ = run_single(ds, DevdanConfig(), 0)
    wall = time.perf_counter() - t0
    ok = report.mean_rate >= 0.78 and wall < 15 * 60
    criterion(3, ok, f"MNIST rate {report.mean_rate:.4f} (>= 0.78), {wall:.0f}s (< 900s)")


def test_criterion_4_ablation_ordering(sea_runs, sea_nogrow_runs):
    wins = 0
    frozen_everywhere = True
    details = []
    for seed in SEA_SEEDS:
        full = sea_runs[seed]["report"].mean_rate
        nogrow = sea_nogrow_runs[seed]["report"].mean_rate
        wins += full >= nogrow
        frozen_everywhere &= all(
            b.width_after == 1 for b in sea_nogrow_runs[seed]["report"].batches
        )
        details.append(f"seed {seed}: full {full:.4f} vs no-grow {nogrow:.4f}")
    ok = wins >= 4 and frozen_everywhere
    criterion(
        4, ok,
        f"full >= no-grow in {wins}/5 seeds (need >= 4), "
        f"no-grow width stays 1: {frozen_everywhere} | " + "; ".join(details),
    )


def test_criterion_5_probit_approximation():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for mu in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for sig in (0.1, 0.5, 1.0, 2.0):
            mc = float(sigmoid(rng.normal(mu, sig, size=1_000_000)).mean())
            approx = float(sigmoid(mu / math.sqrt(1 + math.pi * sig * sig / 8)))
            worst = max(worst, abs(approx - mc))
    criterion(5, worst <= 0.02, f"probit vs 1e6-draw Monte Carlo, worst gap {worst:.4f} (<= 0.02)")


def _relative_gap(actual, expected, atol=1e-8):
    gap = np.abs(actual - expected) - atol
    return float(np.max(np.maximum(gap, 0.0) / np.maximum(np.abs(expected), 1e-300)))


def test_criterion_6_gradient_oracles():
    rng = np.random.default_rng(77)
    eps = 1e-6
    from devdan.dae import MaskSpec, generative_gradients, mask_input

    worst_gen = 0.0  # tied-weight reconstruction gradients
    for _ in range(50):
        n, width = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        layer = random_layer(n, width, rng)
        x = rng.uniform(size=n)
        x_tilde = mask_input(x, MaskSpec(0.3, rng))
        _, dw, db, dc = generative_gradients(layer, x, x_tilde)
        fd = central_differences(layer, x, x_tilde, eps=eps)
        for got, want in ((dw, fd["w"]), (db, fd["b"]), (dc, fd["c"])):
            worst_gen = max(worst_gen, _relative_gap(got, want))

    worst_disc = 0.0  # cross-entropy gradients through encoder and head
    for _ in range(50):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        model = DevdanModel(n, m, frozen_config(momentum=0.0, seed=7))
        widen(model, int(rng.integers(0, 4)))
        randomize(model, rng)
        x = rng.uniform(size=n)
        label = int(rng.integers(m))
        params = (model.layer.w.copy(), model.layer.b.copy(),
                  model.head.theta.copy(), model.head.eta.copy())
        lr = model.config.lr_discriminative
        model.discriminative_step(x, label)
        after = (model.layer.w, model.layer.b, model.head.theta, model.head.eta)
        grads = [(p - a) / lr for p, a in zip(params, after)]
        for p_idx in range(4):
            fd = np.zeros_like(params[p_idx])
            it = np.nditer(params[p_idx], flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                bumped = [p.copy() for p in params]
                bumped[p_idx][idx] += eps
                up = cross_entropy_at(bumped, x, label)
                bumped[p_idx][idx] -= 2 * eps
                down = cross_entropy_at(bumped, x, label)
                fd[idx] = (up - down) / (2 * eps)
            worst_disc = max(worst_disc, _relative_gap(grads[p_idx], fd))

    ok = worst_gen <= 1e-5 and worst_disc <= 1e-5
    criterion(
        6, ok,
        f"50+50 instances vs central differences: worst relative gap "
        f"generative {worst_gen:.2e}, discriminative {worst_disc:.2e} (<= 1e-5)",
    )


def test_criterion_7_running_statistics_oracle():
    xs = np.random.default_rng(123).normal(loc=3.0, scale=1.7, size=1_000_000)
    s = SpcTracker()  # the running moment of each control chart
    for x in xs:
        s.update(x)
    mean = xs.sum() / xs.size
    std = math.sqrt(float(((xs - mean) ** 2).sum()) / xs.size)
    mean_err = abs(s.mean - mean) / abs(mean)
    std_err = abs(s.std - std) / std
    ok = mean_err <= 1e-9 and std_err <= 1e-9
    criterion(7, ok, f"streaming vs two-pass over 1e6 samples: mean rel {mean_err:.2e}, std rel {std_err:.2e} (<= 1e-9)")


def test_criterion_8_drift_responsiveness(sea_runs):
    per_seed = {}
    for seed in SEA_SEEDS:
        grows = [b.grow_events for b in sea_runs[seed]["report"].batches]
        per_seed[seed] = [grows[k] + grows[k + 1] > 0 for k in SEA_DRIFT_BATCHES]
    seeds_ok = sum(all(hits) for hits in per_seed.values())
    detail = "; ".join(
        f"seed {s}: flips hit {[int(h) for h in hits]}" for s, hits in per_seed.items()
    )
    criterion(8, seeds_ok >= 4, f"grow within 2 batches of every flip in {seeds_ok}/5 seeds (need >= 4) | {detail}")


def test_criterion_9_prequential_hygiene(sea_runs):
    # the fixture runs were executed with hygiene verification on: the test
    # pass of every batch is hash-checked and any mutation raises
    assert all(len(sea_runs[s]["report"].batches) == 100 for s in SEA_SEEDS)
    criterion(9, True, "state hash unchanged by every test pass across 5 full SEA runs")


def test_criterion_10_semi_supervised(sea_runs, sea_half_label_runs):
    ok = True
    details = []
    for seed in SEA_SEEDS:
        full = sea_runs[seed]["report"].mean_rate
        half = sea_half_label_runs[seed]["report"].mean_rate
        gap = abs(full - half)
        ok &= gap <= 0.05
        details.append(f"seed {seed}: 100% {full:.4f} vs 50% {half:.4f} (gap {gap:.4f})")
    criterion(10, ok, "50%-label runs within 5 points of 100%-label runs | " + "; ".join(details))


def test_criterion_11_determinism(tmp_path, sea_runs):
    def null_clock():
        return 0.0

    paths = []
    for tag in ("first", "second"):
        report, _ = run_single(sea_spec(), DevdanConfig(), 0, clock=null_clock)
        path = tmp_path / f"{tag}.csv"
        write_batch_csv(report, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    # the injected clock must not perturb the computation: non-timing columns
    # match a wall-clock run of the same seed
    def strip_timing(lines):
        return [",".join(line.split(",")[:7]) for line in lines]

    wall_path = tmp_path / "wall.csv"
    write_batch_csv(sea_runs[0]["report"], wall_path)
    same_columns = strip_timing(paths[0].read_text().splitlines()) == strip_timing(
        wall_path.read_text().splitlines()
    )
    ok = identical and same_columns
    criterion(
        11, ok,
        f"same-seed reruns byte-identical under pinned clock: {identical}; "
        f"non-timing columns match wall-clock run: {same_columns}",
    )
