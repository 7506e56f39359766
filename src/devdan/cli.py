"""Command-line entry point.

Three commands: `run` executes a seeded experiment suite and writes per-batch
CSVs plus a summary JSON, `gen` dumps a generated stream as labeled CSV for
external verification, and `inspect` prints a checkpoint summary. Experiments
are configured by a JSON file, by flags, or both; flags win. Exit codes:
0 success, 1 runtime failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .errors import CheckpointError, ConfigError, DevdanError
from .model import DevdanConfig
from .prequential import (
    parameter_count,
    run_suite,
    write_batch_csv,
    write_summary_json,
)
from .streams import DatasetSpec, gen_hyperplane, gen_sea

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# config-file keys and their CLI twins; every flag has a file equivalent
_CONFIG_KEYS = {
    "dataset": "sea",
    "samples": 100_000,
    "batch": 1000,
    "seeds": 5,
    "seed_base": None,  # resolved from DEVDAN_SEED, then 0
    "label_fraction": 1.0,
    "selection": "random",
    "delta": 0.7,
    "lr_generative": 0.001,
    "lr_discriminative": 0.01,
    "momentum": 0.95,
    "mask_fraction": 0.10,
    "no_generative": False,
    "no_grow": False,
    "no_prune": False,
    "reset_all": False,
    "csv_path": None,
    "label_column": -1,
    "idx_images": None,
    "idx_labels": None,
    "permutations": None,  # config-file only: [[start, [perm...]], ...]
    "out": ".",
    "prefix": "run",
    "checkpoint_out": None,
    "jobs": 1,
}


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: cannot read config ({err})") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return doc


def _effective_config(args) -> dict:
    cfg = dict(_CONFIG_KEYS)
    if args.config:
        cfg.update(_load_config_file(args.config))
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if cfg["seed_base"] is None:
        cfg["seed_base"] = int(os.environ.get("DEVDAN_SEED", "0"))
    return cfg


def _seed_list(cfg) -> list[int]:
    seeds = cfg["seeds"]
    if isinstance(seeds, int):
        return [cfg["seed_base"] + i for i in range(seeds)]
    return [int(s) for s in seeds]


def _dataset_spec(cfg) -> DatasetSpec:
    permutations = cfg["permutations"]
    if permutations is not None:
        permutations = tuple((int(start), list(perm)) for start, perm in permutations)
    spec = DatasetSpec(
        source=cfg["dataset"],
        total_samples=int(cfg["samples"]),
        batch_size=int(cfg["batch"]),
        label_fraction=float(cfg["label_fraction"]),
        selection_mode=cfg["selection"],
        delta=float(cfg["delta"]),
        csv_path=cfg["csv_path"],
        label_column=int(cfg["label_column"]),
        idx_images=cfg["idx_images"],
        idx_labels=cfg["idx_labels"],
        permutations=permutations,
    )
    spec.validate()
    return spec


def _model_config(cfg, seed: int = 0) -> DevdanConfig:
    model_cfg = DevdanConfig(
        lr_generative=float(cfg["lr_generative"]),
        lr_discriminative=float(cfg["lr_discriminative"]),
        momentum=float(cfg["momentum"]),
        mask_fraction=float(cfg["mask_fraction"]),
        reset_mode="reset_all" if cfg["reset_all"] else "standard",
        enable_generative=not cfg["no_generative"],
        enable_grow=not cfg["no_grow"],
        enable_prune=not cfg["no_prune"],
        seed=seed,
    )
    model_cfg.validate()
    return model_cfg


def cmd_run(args) -> int:
    cfg = _effective_config(args)
    seeds = _seed_list(cfg)
    dataset = _dataset_spec(cfg)
    model_cfg = _model_config(cfg)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_suite(dataset, model_cfg, seeds, jobs=int(cfg["jobs"]))
    ck_dir = Path(cfg["checkpoint_out"]) if cfg["checkpoint_out"] else None
    if ck_dir is not None:
        ck_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for row in result["rows"]:
        if row.report is None:
            failures += 1
            print(f"seed {row.seed}: FAILED\n{row.error}", file=sys.stderr)
            continue
        csv_path = out_dir / f"{cfg['prefix']}_seed{row.seed}.csv"
        write_batch_csv(row.report, csv_path)
        if ck_dir is not None:
            # the suite ran every seed under one config; each file records its own seed
            row.model.config = _model_config(cfg, row.seed)
            save_checkpoint(row.model, ck_dir / f"{cfg['prefix']}_seed{row.seed}.ckpt.json")
        print(
            f"seed {row.seed}: rate {row.report.mean_rate:.4f} "
            f"+- {row.report.std_rate:.4f}, final nodes {row.report.final_width}, "
            f"wrote {csv_path}"
        )
    summary_path = out_dir / f"{cfg['prefix']}_summary.json"
    write_summary_json(summary_path, dataset, model_cfg, seeds, result, effective_config=cfg)
    print(f"summary: {summary_path}")
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_gen(args) -> int:
    count, seed = args.count, args.seed
    rng = np.random.default_rng(seed)
    if args.dataset == "sea":
        feats, labels = gen_sea(count, rng=rng)
    elif args.dataset == "hyperplane":
        feats, labels = gen_hyperplane(count, rng=rng)
    else:
        raise ConfigError(f"gen supports sea|hyperplane, not {args.dataset!r}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"f{j}" for j in range(feats.shape[1])) + ",label\n")
        for row, lab in zip(feats, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(lab)}\n")
    print(f"wrote {count} rows to {args.out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_checkpoint(args.checkpoint)

    def tracker_summary(t):
        return {
            "count": t.count,
            "mean": t.mean,
            "std": t.std,
            "min_mean": t.min_mean,
            "min_std": t.min_std,
        }

    doc = {
        "n_in": model.n_in,
        "n_classes": model.n_classes,
        "hidden_nodes": model.width,
        "parameter_count": parameter_count(model),
        "config": dataclasses.asdict(model.config),
        "monitors": {
            "generative_bias": tracker_summary(model.gen_bias),
            "generative_variance": tracker_summary(model.gen_var),
            "discriminative_bias": tracker_summary(model.disc_bias),
            "discriminative_variance": tracker_summary(model.disc_var),
        },
    }
    print(json.dumps(doc, indent=1))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devdan",
        description="Evolving denoising autoencoder on data streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a prequential experiment suite")
    run.add_argument("--config", help="JSON config file; flags override it")
    run.add_argument("--dataset", choices=("sea", "hyperplane", "csv", "idx"))
    run.add_argument("--samples", type=int)
    run.add_argument("--batch", type=int)
    run.add_argument("--seeds", type=int, help="number of consecutive seeds")
    run.add_argument("--seed-base", type=int, dest="seed_base")
    run.add_argument("--label-fraction", type=float, dest="label_fraction")
    run.add_argument("--selection", choices=("random", "confidence"))
    run.add_argument("--delta", type=float)
    run.add_argument("--lr-generative", type=float, dest="lr_generative")
    run.add_argument("--lr-discriminative", type=float, dest="lr_discriminative")
    run.add_argument("--momentum", type=float)
    run.add_argument("--mask-fraction", type=float, dest="mask_fraction")
    run.add_argument("--no-generative", action="store_const", const=True, dest="no_generative")
    run.add_argument("--no-grow", action="store_const", const=True, dest="no_grow")
    run.add_argument("--no-prune", action="store_const", const=True, dest="no_prune")
    run.add_argument("--reset-all", action="store_const", const=True, dest="reset_all")
    run.add_argument("--csv-path", dest="csv_path")
    run.add_argument("--label-column", type=int, dest="label_column")
    run.add_argument("--idx-images", dest="idx_images")
    run.add_argument("--idx-labels", dest="idx_labels")
    run.add_argument("--out")
    run.add_argument("--prefix")
    run.add_argument("--checkpoint-out", dest="checkpoint_out")
    run.add_argument("--jobs", type=int)
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen", help="dump a generated stream as labeled CSV")
    gen.add_argument("dataset", choices=("sea", "hyperplane"))
    gen.add_argument("count", type=int)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    inspect = sub.add_parser("inspect", help="print a checkpoint summary")
    inspect.add_argument("checkpoint")
    inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "gen" and args.seed is None:
        args.seed = int(os.environ.get("DEVDAN_SEED", "0"))
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DevdanError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
