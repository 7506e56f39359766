"""Versioned model checkpoints and state hashing.

Checkpoints are JSON: self-describing, diff-able, and exact, since Python
serializes floats with shortest round-trip precision. Everything needed to
resume bit-identically is included: parameters, momentum slots, node
statistics, control charts, config, and the RNG state.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from .errors import CheckpointError
from .model import CHARTS, STATE_SLOTS, DevdanConfig, DevdanModel
from .monitors import SpcTracker

FORMAT_VERSION = 1


def _nest(doc: dict, key: str, value) -> None:
    *parents, leaf = key.split(".")
    for name in parents:
        doc = doc.setdefault(name, {})
    doc[leaf] = value


def _lookup(doc: dict, key: str):
    for name in key.split("."):
        doc = doc[name]
    return doc


def model_to_dict(model: DevdanModel) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "n_in": model.n_in,
        "n_classes": model.n_classes,
        "width": model.width,
        "config": dataclasses.asdict(model.config),
    }
    for slot in STATE_SLOTS:
        _nest(doc, slot.key, slot.get(model).tolist())
    for name, row in zip(CHARTS, model.charts):
        count, mean, m2, min_mean, min_std, reseed = SpcTracker(row).values()
        doc[name] = {"current": {"count": count, "mean": mean, "m2": m2},
                     "min_mean": min_mean, "min_std": min_std, "reseed": reseed}
    doc["rng_state"] = model.rng.bit_generator.state
    return doc


def save_checkpoint(model: DevdanModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> DevdanModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: unreadable checkpoint ({err})") from err
    try:
        if doc["format_version"] != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {doc['format_version']} not supported"
            )
        config = DevdanConfig(**doc["config"])
        model = DevdanModel(doc["n_in"], doc["n_classes"], config)
        width = doc["width"]
        if not isinstance(width, int) or width < 1:
            raise CheckpointError(f"{path}: width {width!r} is not a positive integer")
        sizes = {"n": model.n_in, "width": width, "m": model.n_classes}
        for slot in STATE_SLOTS:
            shape = slot.shape(sizes)
            arr = np.asarray(_lookup(doc, slot.key), dtype=slot.dtype)
            if arr.shape != shape:
                raise CheckpointError(f"{path}: {slot.key} has shape {arr.shape}, expected {shape}")
            slot.set(model, arr)
        for name, row in zip(CHARTS, model.charts):
            chart, moment = doc[name], doc[name]["current"]
            row[:] = (int(moment["count"]), float(moment["mean"]), float(moment["m2"]),
                      float(chart["min_mean"]), float(chart["min_std"]), bool(chart["reseed"]))
        model.rng.bit_generator.state = doc["rng_state"]
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: malformed checkpoint ({err})") from err
    return model


def state_hash(model: DevdanModel) -> str:
    """SHA-256 over every mutable piece of model state, RNG included."""
    h = hashlib.sha256()
    for slot in STATE_SLOTS:
        # as the slot's dtype, which training casts every array to
        h.update(np.ascontiguousarray(slot.get(model), dtype=slot.dtype).tobytes())
    for row in model.charts:
        h.update(repr(SpcTracker(row).values()).encode())
    h.update(repr(model.rng.bit_generator.state).encode())
    return h.hexdigest()
