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
import operator
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DevdanError
from .model import DevdanConfig
from .prequential import (
    parameter_count,
    run_suite,
    write_batch_csv,
    write_summary_json,
)
from .state import COUNT, SEED, STRING, Kind, check
from .streams import DatasetSpec, gen_hyperplane, gen_sea

# the streams that `devdan gen` writes, each at its default concepts
GENERATED = {"sea": gen_sea, "hyperplane": gen_hyperplane}

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _same(value):
    return value


class Setting(NamedTuple):
    """One `devdan run` setting: a config-file key and, where its kind reads
    a flag's text, the flag --key with dashes; a setting whose default is
    False is an on/off flag."""

    key: str
    default: object
    kind: Kind
    field: str | None = None  # the DatasetSpec or DevdanConfig field it sets
    to_field: Callable = _same  # that field's value from the setting's
    help: str | None = None


_FIELDS = {f.name: f for cls in (DatasetSpec, DevdanConfig) for f in dataclasses.fields(cls)}


def _field(key, name=None, to_field=_same) -> Setting:
    """The setting of the field name (key unless given), of the field's kind;
    to_field maps the setting's value to the field's, and the field's default
    to the setting's (operator.not_ for a no_<switch> key)."""
    field = _FIELDS[name or key]
    return Setting(key, to_field(field.default), field.metadata["kind"], field.name, to_field)


def _seeds(value) -> bool:
    """A seed count, or the list of seeds itself; either names at least one."""
    return bool(value) and all(map(SEED.takes, value)) if type(value) is list else value > 0


SEEDS = Kind((int, list), "a positive seed count or a non-empty list of non-negative seeds",
             _seeds, parse=int)
# the settings of `devdan run` in flag and summary order; every flag has a config-file twin
SETTINGS = {s.key: s for s in (
    _field("dataset", "source"),
    _field("samples", "total_samples"),
    _field("batch", "batch_size"),
    Setting("seeds", 5, SEEDS, help="number of consecutive seeds"),
    Setting("seed_base", None, SEED),  # resolved from DEVDAN_SEED, then 0
    _field("label_fraction"),
    _field("selection", "selection_mode"),
    _field("delta"),
    _field("lr_generative"),
    _field("lr_discriminative"),
    _field("momentum"),
    _field("mask_fraction"),
    _field("no_generative", "enable_generative", operator.not_),
    _field("no_grow", "enable_grow", operator.not_),
    _field("no_prune", "enable_prune", operator.not_),
    _field("csv_path"),
    _field("label_column"),
    _field("idx_images"),
    _field("idx_labels"),
    _field("permutations"),  # config-file only: [[start, [perm...]], ...]
    Setting("out", ".", STRING),
    Setting("prefix", "run", STRING),
    Setting("checkpoint_out", None, STRING),
    Setting("jobs", 1, COUNT),
)}


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: cannot read config ({err})") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - set(SETTINGS))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return doc


def _effective_config(args) -> dict:
    """Each setting from its flag, else the config file, else its default,
    checked by its kind under its key (state.check), a number as a float."""
    given = _load_config_file(args.config) if args.config else {}
    for key in SETTINGS:
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
    cfg = {}
    for key, s in SETTINGS.items():
        value = check(key, s.kind, given.get(key, s.default), s.default is None)
        cfg[key] = float(value) if s.kind.parse is float else value
    if cfg["seed_base"] is None:
        cfg["seed_base"] = _env_seed()
    return cfg


def _seed_text(text: str) -> bool:
    try:
        return SEED.takes(int(text))
    except ValueError:
        return False


def _env_seed() -> int:
    """DEVDAN_SEED, the seed that `run` and `gen` fall back to; 0 when unset."""
    return int(check("DEVDAN_SEED", STRING.within(_seed_text, SEED.words),
                     os.environ.get("DEVDAN_SEED", "0")))


def _seed_list(cfg) -> list[int]:
    seeds = cfg["seeds"]
    if isinstance(seeds, int):
        return [cfg["seed_base"] + i for i in range(seeds)]
    return seeds


def _build(cls, cfg):
    """The DatasetSpec or DevdanConfig whose fields the settings in cfg set."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{s.field: s.to_field(cfg[s.key]) for s in SETTINGS.values() if s.field in names})


def cmd_run(args) -> int:
    cfg = _effective_config(args)
    seeds = _seed_list(cfg)
    dataset = _build(DatasetSpec, cfg)
    model_cfg = _build(DevdanConfig, cfg)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_suite(dataset, model_cfg, seeds, jobs=cfg["jobs"])
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
    count = check("count", COUNT, args.count)
    seed = _env_seed() if args.seed is None else check("seed", SEED, args.seed)
    feats, labels = GENERATED[args.dataset](count, rng=np.random.default_rng(seed))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"f{j}" for j in range(feats.shape[1])) + ",label\n")
        for row, lab in zip(feats, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(lab)}\n")
    print(f"wrote {count} rows to {args.out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_checkpoint(args.checkpoint)
    charts = {"generative_bias": model.gen_bias, "generative_variance": model.gen_var,
              "discriminative_bias": model.disc_bias, "discriminative_variance": model.disc_var}
    doc = {
        "n_in": model.n_in,
        "n_classes": model.n_classes,
        "hidden_nodes": model.width,
        "parameter_count": parameter_count(model),
        "config": dataclasses.asdict(model.config),
        "monitors": {name: {key: getattr(chart, key)
                            for key in ("count", "mean", "std", "min_mean", "min_std")}
                     for name, chart in charts.items()},
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
    for s in SETTINGS.values():
        flag = "--" + s.key.replace("_", "-")
        if s.default is False:
            run.add_argument(flag, action="store_const", const=True, help=s.help)
        elif s.kind.parse:
            run.add_argument(flag, type=s.kind.parse, help=s.help, choices=s.kind.choices)
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen", help="dump a generated stream as labeled CSV")
    gen.add_argument("dataset", choices=tuple(GENERATED))
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
