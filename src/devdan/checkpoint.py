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
from .model import DevdanConfig, DevdanModel
from .monitors import SpcTracker, negative_m2
from .state import CHARTS, STATE_SLOTS

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


def _number(value) -> bool:
    return type(value) in (int, float)


# Each chart column's key in a checkpoint's chart entry, in column order, with
# what training needs of its value; NaN passes, since a model that trained on
# NaN input holds it
_CHART_ENTRIES = (
    ("current.count", lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    ("current.mean", _number, "a number"),
    ("current.m2", lambda v: _number(v) and not negative_m2(v), "a non-negative number"),
    ("min_mean", _number, "a number"),
    ("min_std", lambda v: _number(v) and not v < 0, "a non-negative number"),
    ("reseed", lambda v: type(v) is bool, "true or false"),
)


def model_to_dict(model: DevdanModel) -> dict:
    """The checkpoint document of model; a wrongly shaped state or chart
    array raises the ShapeError that training would."""
    *arrays, charts = model.checked_state()
    doc = {
        "format_version": FORMAT_VERSION,
        "n_in": model.n_in,
        "n_classes": model.n_classes,
        "width": model.width,
        # a numpy seed or switch as the JSON number or boolean it holds
        "config": {key: value.item() if isinstance(value, np.generic) else value
                   for key, value in dataclasses.asdict(model.config).items()},
    }
    for slot, arr in zip(STATE_SLOTS, arrays):
        _nest(doc, slot.key, arr.tolist())
    for name, row in zip(CHARTS, charts):
        for (key, _, _), value in zip(_CHART_ENTRIES, SpcTracker(row).values()):
            _nest(doc, f"{name}.{key}", value)
    doc["rng_state"] = model.rng.bit_generator.state
    return doc


def save_checkpoint(model: DevdanModel, path) -> None:
    doc = model_to_dict(model)  # before the file opens: a refused model writes nothing
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
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
        config = dict(doc["config"])
        # written while DevdanConfig had reset_mode: "standard" trained as
        # every model trains now, "reset_all" cannot be resumed
        mode = config.pop("reset_mode", "standard")
        if mode != "standard":
            raise CheckpointError(f"{path}: reset_mode {mode!r} is no longer supported")
        model = DevdanModel(doc["n_in"], doc["n_classes"], DevdanConfig(**config))
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
            for col, (key, usable, expected) in enumerate(_CHART_ENTRIES):
                value = _lookup(doc, f"{name}.{key}")
                if not usable(value):
                    raise CheckpointError(f"{path}: {name}.{key} is {value!r}, "
                                          f"expected {expected}")
                row[col] = value
        model.rng.bit_generator.state = doc["rng_state"]
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CheckpointError(f"{path}: malformed checkpoint ({err})") from err
    return model


def state_hash(model: DevdanModel) -> str:
    """SHA-256 over every mutable piece of model state, RNG included; a
    wrongly shaped state or chart array raises the ShapeError that training
    would."""
    h = hashlib.sha256()
    *arrays, charts = model.checked_state()
    for slot, arr in zip(STATE_SLOTS, arrays):
        # as the slot's dtype, which training casts every array to
        h.update(np.ascontiguousarray(arr, dtype=slot.dtype).tobytes())
    for row in charts:
        h.update(repr(SpcTracker(row).values()).encode())
    h.update(repr(model.rng.bit_generator.state).encode())
    return h.hexdigest()
