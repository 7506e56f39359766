"""The tables of a model's state arrays (STATE_SLOTS), charts and their
entries and bit generators, the kinds of value a setting or chart entry takes
(Kind), check(), which words every refusal, and plain(), which turns numpy
values into JSON ones."""
from __future__ import annotations

import dataclasses
import enum
import json
import operator
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError


class StateSlot(NamedTuple):
    """One model-state array.

    key     : checkpoint key; a dot nests it ("gen_stats.count")
    owner   : model attribute that holds the array, None for the model itself
    attr    : attribute name on the owner
    extents : the array's shape, each a size name ("n" inputs, "width"
              hidden nodes, "m" classes) or a fixed size
    dtype   : the array's dtype
    """

    key: str
    owner: str | None
    attr: str
    extents: tuple
    dtype: type = np.float64

    @property
    def node_axis(self) -> int | None:
        """The axis that runs over hidden nodes, None if there is none."""
        return self.extents.index("width") if "width" in self.extents else None

    def shape(self, sizes: dict) -> tuple:
        """The shape with each named extent looked up in sizes (which maps
        "n", "width" and "m" to a size) and each fixed size as it is."""
        return tuple(map(sizes.get, self.extents, self.extents))

    def get(self, model) -> np.ndarray:
        return getattr(self._holder(model), self.attr)

    def set(self, model, value: np.ndarray) -> None:
        setattr(self._holder(model), self.attr, value)

    def _holder(self, model):
        return model if self.owner is None else getattr(model, self.owner)


# Every array of model state, in checkpoint and state-hash order. Grow, prune,
# checkpoints, the hash, the compiled loop's struct model and the shape and
# dtype check before training all walk this table, so per-node state
# declared here stays in step everywhere.
STATE_SLOTS = (
    StateSlot("w", "layer", "w", ("n", "width")),
    StateSlot("b", "layer", "b", ("width",)),
    StateSlot("c", "layer", "c", ("n",)),
    StateSlot("theta", "head", "theta", ("width", "m")),
    StateSlot("eta", "head", "eta", ("m",)),
    StateSlot("vel_theta", "head", "vel_theta", ("width", "m")),
    StateSlot("vel_eta", "head", "vel_eta", ("m",)),
    StateSlot("vel_w", None, "vel_w", ("n", "width")),
    StateSlot("vel_b", None, "vel_b", ("width",)),
    StateSlot("gen_stats.count", "gen_stats", "count", ("width",), np.int64),
    StateSlot("gen_stats.mean", "gen_stats", "mean", ("width",)),
    StateSlot("gen_stats.m2", "gen_stats", "m2", ("width",)),
    StateSlot("disc_stats.count", "disc_stats", "count", ("width",), np.int64),
    StateSlot("disc_stats.mean", "disc_stats", "mean", ("width",)),
    StateSlot("disc_stats.m2", "disc_stats", "m2", ("width",)),
)
# The columns of a chart row: the running moment of the watched stream, the
# lowest mean and std since the last reset, and whether the next observation
# re-seeds those minima (1.0) or not (0.0). The compiled loop's header
# declares the same names (kernel.header).
Column = enum.IntEnum("Column", "COUNT MEAN M2 MIN_MEAN MIN_STD RESEED", start=0)
CHART_FIELDS = len(Column)
# The rows of a model's chart array (`DevdanModel.charts`), each the model
# attribute that views it; checkpoints and the state hash follow this order.
CHARTS = ("gen_bias", "gen_var", "disc_bias", "disc_var")
# the chart array, which checkpoints and the hash store row by row
CHART_SLOT = StateSlot("charts", None, "charts", (len(CHARTS), CHART_FIELDS))
# a model's STATE_SLOTS arrays, in table order, then its chart array, fetched
# in one call
state_arrays = operator.attrgetter(*(f"{s.owner}.{s.attr}" if s.owner else s.attr
                                     for s in (*STATE_SLOTS, CHART_SLOT)))
# the bit generators a model's numpy Generator may draw from, by the name its
# state records, which is the name a checkpoint rebuilds it from
BIT_GENERATORS = {bits.__name__: bits for bits in (
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64)}


def plain(value):
    """value with every numpy array and scalar in it, through dicts, lists and
    tuples (which become lists), as the JSON value that .tolist() gives."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


class Kind(NamedTuple):
    """What a setting or chart entry takes: a value of one of types (a bool is
    no number) for which ok, where given, holds. An error names a value of
    another type by of, and one that ok refuses by words (or of). A flag's
    text is read as parse (None: no flag) and names one of choices, if any."""

    types: tuple
    of: str
    ok: Callable | None = None
    words: str | None = None
    parse: type | None = None
    choices: tuple | None = None

    def typed(self, value) -> bool:
        return isinstance(value, self.types) and (type(value) is not bool or bool in self.types)

    def takes(self, value) -> bool:
        return self.typed(value) and (self.ok is None or self.ok(value))

    def within(self, ok: Callable, words: str) -> Kind:
        return self._replace(ok=ok, words=words)


INTEGER = Kind((int, np.integer), "an integer", parse=int)
NUMBER = Kind((int, float, np.integer, np.floating), "a number", parse=float)
SWITCH = Kind((bool, np.bool_), "true or false")
STRING = Kind((str,), "a string", parse=str)
COUNT = INTEGER.within(lambda value: value >= 1, "a positive integer")
SEED = INTEGER.within(lambda value: value >= 0, "a non-negative integer")


def exactly(value, words: str | None = None) -> Kind:
    """value itself, named by words, else by value as JSON."""
    return Kind((type(value),), words or json.dumps(value), lambda other: other == value)


def one_of(choices: tuple) -> Kind:
    """One of the strings choices."""
    return Kind((str,), "one of " + ", ".join(choices), choices.__contains__, parse=str,
                choices=choices)


# Each chart column's checkpoint key under the chart's name and its kind, of
# the JSON types a checkpoint holds; ok holds for a float of the chart array
# where the kind takes SpcTracker.values() of it. NaN passes where an
# overflowed row can leave it: mean, m2 and the minima.
CHART_ENTRIES = (
    ("current.count", Kind((int,), "a non-negative integer", lambda v: v >= 0 and v % 1 == 0)),
    ("current.mean", Kind((int, float), "a number")),
    ("current.m2", Kind((int, float), "a non-negative number", lambda v: not v < 0)),
    ("min_mean", Kind((int, float), "a number")),
    ("min_std", Kind((int, float), "a non-negative number", lambda v: not v < 0)),
    ("reseed", Kind((bool,), "true or false", lambda v: v == 0 or v == 1)),
)


def check(name: str, kind: Kind, value, none: bool = False, error: type = ConfigError):
    """value if kind takes it, or if it is None and none is true; anything
    else raises error("<name> is <value>, expected <words>"), with the value
    as JSON, or as its repr where JSON has none (nan, an object)."""
    if kind.takes(value) or value is None and none:
        return value
    try:
        shown = json.dumps(value, allow_nan=False)
    except (TypeError, ValueError):
        shown = repr(value)
    expected = kind.words if kind.words and kind.typed(value) else kind.of
    raise error(f"{name} is {shown}, expected {expected}")


def setting(default, kind: Kind):
    """A dataclass field of default whose values check_fields checks by kind."""
    return dataclasses.field(default=default, metadata={"kind": kind})


def check_fields(cls, values: dict) -> None:
    """check() each of values, in field order, by the kind of its field of
    the dataclass cls (None is taken where that field's default is None)."""
    for field in dataclasses.fields(cls):
        if field.name in values:
            check(field.name, field.metadata["kind"], values[field.name], field.default is None)
