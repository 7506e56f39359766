"""Versioned model checkpoints and state hashing.

Checkpoints are JSON: self-describing, diff-able, and exact, since Python
serializes floats with shortest round-trip precision. Everything needed to
resume bit-identically is included: parameters, momentum slots, node
statistics, control trackers, config, and the RNG state.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from .errors import CheckpointError
from .model import STATE_SLOTS, DevdanConfig, DevdanModel
from .monitors import SpcTracker
from .numerics import RunningMoment

FORMAT_VERSION = 1

_TRACKERS = ("gen_bias", "gen_var", "disc_bias", "disc_var")


def _moment_to_dict(m: RunningMoment) -> dict:
    return {"count": m.count, "mean": m.mean, "m2": m.m2}


def _tracker_to_dict(t: SpcTracker) -> dict:
    return {
        "current": _moment_to_dict(t.current),
        "min_mean": t.min_mean,
        "min_std": t.min_std,
        "reseed": t._reseed,
    }


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
    for name in _TRACKERS:
        doc[name] = _tracker_to_dict(getattr(model, name))
    doc["rng_state"] = model.rng.bit_generator.state
    return doc


def save_checkpoint(model: DevdanModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def _moment_from_dict(d: dict) -> RunningMoment:
    return RunningMoment(int(d["count"]), float(d["mean"]), float(d["m2"]))


def _tracker_from_dict(d: dict) -> SpcTracker:
    t = SpcTracker()
    t.current = _moment_from_dict(d["current"])
    t.min_mean = float(d["min_mean"])
    t.min_std = float(d["min_std"])
    t._reseed = bool(d["reseed"])
    return t


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
        for slot in STATE_SLOTS:
            # a fresh model has the right dtype and every non-node extent
            fresh = slot.get(model)
            shape = list(fresh.shape)
            if slot.node_axis is not None:
                shape[slot.node_axis] = width
            arr = np.asarray(_lookup(doc, slot.key), dtype=fresh.dtype)
            if arr.shape != tuple(shape):
                raise CheckpointError(
                    f"{path}: {slot.key} has shape {arr.shape}, expected {tuple(shape)}"
                )
            slot.set(model, arr)
        for name in _TRACKERS:
            setattr(model, name, _tracker_from_dict(doc[name]))
        model.rng.bit_generator.state = doc["rng_state"]
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: malformed checkpoint ({err})") from err
    return model


def state_hash(model: DevdanModel) -> str:
    """SHA-256 over every mutable piece of model state, RNG included."""
    h = hashlib.sha256()
    for slot in STATE_SLOTS:
        h.update(np.ascontiguousarray(slot.get(model)).tobytes())
    for name in _TRACKERS:
        h.update(repr(getattr(model, name).values()).encode())
    h.update(repr(model.rng.bit_generator.state).encode())
    return h.hexdigest()
