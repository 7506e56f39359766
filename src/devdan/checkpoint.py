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

from .errors import CheckpointError, ConfigError, NumericError, ShapeError
from .model import DevdanConfig, DevdanModel
from .monitors import SpcTracker
from .state import BIT_GENERATORS, CHART_ENTRIES, CHARTS, STATE_SLOTS, check, exactly, one_of, plain

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
    """The checkpoint document of model; a state that checked_state refuses
    raises the error that training would."""
    *arrays, charts = model.checked_state()
    doc = {
        "format_version": FORMAT_VERSION,
        "n_in": model.n_in,
        "n_classes": model.n_classes,
        "width": model.width,
        "config": plain(dataclasses.asdict(model.config)),
    }
    for slot, arr in zip(STATE_SLOTS, arrays):
        _nest(doc, slot.key, arr.tolist())
    for name, row in zip(CHARTS, charts):
        for (key, _), value in zip(CHART_ENTRIES, SpcTracker(row).values()):
            _nest(doc, f"{name}.{key}", value)
    doc["rng_state"] = plain(model.rng.bit_generator.state)
    return doc


def save_checkpoint(model: DevdanModel, path) -> None:
    # encoded before the file opens: a model that cannot be saved writes nothing
    text = json.dumps(model_to_dict(model), indent=1) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_checkpoint(path) -> DevdanModel:
    """The model a checkpoint file holds, over the bit generator its rng_state
    names. A file unreadable, malformed or of another version, a config or
    size a model refuses, a chart entry its kind refuses (CHART_ENTRIES) or a
    state checked_state refuses raises a CheckpointError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: unreadable checkpoint ({err})") from err
    try:
        check("format_version", exactly(FORMAT_VERSION), doc["format_version"])
        config = dict(doc["config"])
        # written while DevdanConfig had reset_mode: "standard" trained as
        # every model trains now, "reset_all" cannot be resumed
        check("reset_mode", exactly("standard"), config.pop("reset_mode", "standard"))
        rng_state = doc["rng_state"]
        bits = BIT_GENERATORS[check("rng_state.bit_generator", one_of(tuple(BIT_GENERATORS)),
                                    rng_state["bit_generator"])]
        model = DevdanModel(doc["n_in"], doc["n_classes"], DevdanConfig(**config),
                            rng=np.random.Generator(bits()))
        for slot in STATE_SLOTS:
            slot.set(model, np.asarray(_lookup(doc, slot.key), dtype=slot.dtype))
        for name, row in zip(CHARTS, model.charts):
            for col, (key, kind) in enumerate(CHART_ENTRIES):
                row[col] = check(f"{name}.{key}", kind, _lookup(doc, f"{name}.{key}"),
                                 error=NumericError)
        model.rng.bit_generator.state = rng_state
        model.checked_state()
        check("width", exactly(model.width, f"w's width ({model.width})"), doc["width"])
    except (ShapeError, NumericError, ConfigError) as err:
        raise CheckpointError(f"{path}: {err}") from err
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CheckpointError(f"{path}: malformed checkpoint ({err})") from err
    return model


def state_hash(model: DevdanModel) -> str:
    """SHA-256 over every mutable piece of model state, RNG included; a
    state that checked_state refuses raises the error that training would."""
    h = hashlib.sha256()
    *arrays, charts = model.checked_state()
    for slot, arr in zip(STATE_SLOTS, arrays):
        # as the slot's dtype, which training casts every array to
        h.update(np.ascontiguousarray(arr, dtype=slot.dtype).tobytes())
    for row in charts:
        h.update(repr(SpcTracker(row).values()).encode())
    h.update(repr(plain(model.rng.bit_generator.state)).encode())
    return h.hexdigest()
