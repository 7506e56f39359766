"""Data sources and batching.

Synthetic drift generators (SEA threshold flips, gradually mixed hyperplanes),
min-max-normalized CSV ingestion that streams plain files through numpy's
reader with a per-user parse cache, IDX image ingestion with optional pixel
permutation drift, and the batching step that groups rows into per-timestamp
batches and decides which labels are revealed.
"""
from __future__ import annotations

import csv as _csv
import io
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CsvFormatError, DevdanError, IdxFormatError, StructureError
from .state import COUNT, INTEGER, NUMBER, STRING, Kind, check, check_fields, one_of, setting

SEA_DEFAULT_SCHEDULE = ((0, 4.0), (25_000, 7.0), (50_000, 4.0), (75_000, 7.0))

HYPERPLANE_DEFAULT_CONCEPTS = (
    ((1.0, 1.0, 1.0, 1.0), 2.0),
    ((1.5, 1.0, 1.0, 0.5), 2.0),
)

# each source of a DatasetSpec and its reader: the rows (features, labels) for
# a spec and the stream's generator, which materialize cuts to total_samples
SOURCES = {
    "sea": lambda spec, rng: gen_sea(spec.total_samples, spec.sea_schedule, rng),
    "hyperplane": lambda spec, rng: gen_hyperplane(spec.total_samples, rng=rng),
    "csv": lambda spec, rng: load_csv(spec.csv_path, spec.label_column)[:2],
    "idx": lambda spec, rng: load_idx(spec.idx_images, spec.idx_labels),
}
# how batchify picks each batch's revealed labels
SELECTION_MODES = ("random", "confidence")


@dataclass
class StreamBatch:
    """One timestamp's worth of rows.

    Ground-truth labels exist for every row; labeled_mask records which of
    them the learner is allowed to see during training. None means they are
    chosen at test time from the model's prediction.
    """

    features: np.ndarray              # (T, n), entries in [0, 1]
    labels: np.ndarray                # (T,) class ids
    labeled_mask: np.ndarray | None   # (T,) bool
    timestamp: int


def _schedule(value, takes) -> bool:
    """Whether value is a non-empty list of [start, item] pairs, the starts
    integers rising strictly from 0 and takes(item) true of each item."""
    try:
        starts, items = zip(*[(start, item) for start, item in value])
        return (all(map(INTEGER.takes, starts)) and starts[0] == 0
                and all(a < b for a, b in zip(starts, starts[1:])) and all(map(takes, items)))
    except (TypeError, ValueError):  # no list of pairs, or an item takes cannot read
        return False


def _permutation(perm) -> bool:
    """Whether perm is integer indices that order 0..len(perm)-1."""
    return all(map(INTEGER.takes, perm)) and sorted(perm) == list(range(len(perm)))


# gen_sea's thresholds and permute_drift's permutations, each from its start
SCHEDULE = Kind((list, tuple), "a list of [start, threshold] pairs, the starts integers rising "
                               "from 0 and each threshold a finite number",
                lambda value: _schedule(value, lambda t: NUMBER.takes(t) and math.isfinite(t)))
PAIRS = Kind((list, tuple), "a list of [start, [index, ...]] pairs, the starts rising from 0 "
                            "and each index list a permutation",
             lambda value: _schedule(value, _permutation))


def _segment_values(count: int, schedule) -> np.ndarray:
    """Per-sample parameter values from a (start, value) schedule: each value
    repeated from its start to the next, the last to count."""
    check("schedule", SCHEDULE, schedule)
    starts, values = zip(*schedule)
    return np.repeat(np.asarray(values, np.float64), np.diff(np.minimum([*starts, count], count)))


def gen_sea(count: int, schedule=SEA_DEFAULT_SCHEDULE, rng=None):
    """SEA stream: three uniform features on [0, 10] scaled to [0, 1].

    Class 0 when the raw first two features sum below the scheduled threshold,
    class 1 otherwise; the third feature is pure noise. Returns (features,
    labels)."""
    theta = _segment_values(count, schedule)
    rng = rng if rng is not None else np.random.default_rng()
    raw = rng.uniform(0.0, 10.0, size=(count, 3))
    labels = (raw[:, 0] + raw[:, 1] >= theta).astype(np.int64)
    return raw / 10.0, labels


def gen_hyperplane(
    count: int,
    d: int = 4,
    concepts=HYPERPLANE_DEFAULT_CONCEPTS,
    ramp=(0.4, 0.6),
    rng=None,
):
    """Gradually drifting hyperplane stream on [0, 1]^d.

    Two labeling concepts (w, w0); each sample is labeled by concept B with a
    probability that ramps linearly from 0 to 1 across the configured window
    (given as fractions of the stream), and by concept A otherwise. The label
    is 1 where sum_j w_j x_j > w0. Returns (features, labels)."""
    rng = rng if rng is not None else np.random.default_rng()
    (w_a, w0_a), (w_b, w0_b) = concepts
    w_a = np.asarray(w_a, dtype=np.float64)
    w_b = np.asarray(w_b, dtype=np.float64)
    if w_a.shape != (d,) or w_b.shape != (d,):
        raise ConfigError(f"concept weights must have length d={d}")
    feats = rng.uniform(0.0, 1.0, size=(count, d))
    lo, hi = ramp
    if not 0.0 <= lo <= hi <= 1.0:
        raise ConfigError("ramp window must satisfy 0 <= start <= end <= 1")
    t = np.arange(count) / max(count - 1, 1)
    if hi > lo:
        p_b = np.clip((t - lo) / (hi - lo), 0.0, 1.0)
    else:
        p_b = (t >= lo).astype(np.float64)
    use_b = rng.random(count) < p_b
    lab_a = (feats @ w_a > w0_a).astype(np.int64)
    lab_b = (feats @ w_b > w0_b).astype(np.int64)
    return feats, np.where(use_b, lab_b, lab_a)


# --------------------------------------------------------------- file ingestion

# Bytes that csv.reader with float(), universal newlines and np.loadtxt all
# read alike: printable ASCII except the quote character, plus tab, CR and LF.
_PLAIN_CSV_BYTES = b"\t\n\r" + bytes(range(0x20, 0x7F)).replace(b'"', b"")
_CHUNK = 1 << 16  # bytes per read of a CSV file


def _label_index(path, label_column: int, cells) -> int:
    """label_column as an index into a row of len(cells) cells."""
    width = len(cells)
    if not -width <= label_column < width:
        raise ConfigError(f"{path}: label_column {label_column} is outside a row of {width} cells")
    return label_column % width


def _is_header(path, cells, label_column: int) -> bool:
    """A first row is a header when any feature cell fails to parse as a
    number (the label column is categorical and does not count)."""
    lab_idx = _label_index(path, label_column, cells)
    try:
        for cell in cells[:lab_idx] + cells[lab_idx + 1:]:
            float(cell)
    except ValueError:
        return True
    return False


def _feature_layout(path, cells, label_column: int) -> int:
    """Label index of the first data row, which fixes the width of all rows."""
    lab_idx = _label_index(path, label_column, cells)
    if len(cells) == 1:
        raise CsvFormatError(f"{path}: no feature columns")
    return lab_idx


def _read_exact(path, data: bytes, label_column: int):
    """The reference reader: csv.reader, then float() on each feature cell.

    Returns (features, raw_labels); an error in a row names path:line."""
    try:
        # a leading byte order mark is not part of the first cell
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 at byte {exc.start}") from None
    rows = []
    line_no = 0
    try:
        for line_no, cells in enumerate(_csv.reader(io.StringIO(text, newline="")), start=1):
            if cells and not (line_no == 1 and _is_header(path, cells, label_column)):
                rows.append((line_no, cells))
    except _csv.Error as exc:
        raise CsvFormatError(f"{path}:{line_no + 1}: {exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    lab_idx = _feature_layout(path, rows[0][1], label_column)
    width = len(rows[0][1])
    feats = np.empty((len(rows), width - 1))
    raw_labels = []
    for r, (line_no, cells) in enumerate(rows):
        if len(cells) != width:
            raise CsvFormatError(f"{path}:{line_no}: expected {width} cells, found {len(cells)}")
        raw_labels.append(cells.pop(lab_idx).strip())
        for k, cell in enumerate(cells):
            try:
                feats[r, k] = float(cell)
            except ValueError:
                raise CsvFormatError(f"{path}:{line_no}: non-numeric cell {cell!r}") from None
    finite = np.isfinite(feats)
    if not finite.all():
        r, k = np.argwhere(~finite)[0]
        raise CsvFormatError(f"{path}:{rows[r][0]}: non-finite cell {float(feats[r, k])!r}")
    return feats, raw_labels


def _plain_lines(fh, digest):
    """The lines of the binary file fh from its start, without their ends
    (CR and CRLF read as LF), read in chunks that are fed to digest. Raises
    ValueError at a byte outside _PLAIN_CSV_BYTES or a line longer than the
    csv field limit: the file is not plain."""
    newlines = io.IncrementalNewlineDecoder(None, translate=True)
    limit, tail = _csv.field_size_limit(), ""
    for chunk in iter(lambda: fh.read(_CHUNK), b""):
        digest.update(chunk)
        if chunk.translate(None, _PLAIN_CSV_BYTES):
            raise ValueError("not a plain file")
        *lines, tail = (tail + newlines.decode(chunk.decode("ascii"))).split("\n")
        if len(tail) > limit or max(map(len, lines), default=0) > limit:
            raise ValueError("a line longer than the csv field limit")
        yield from lines
    yield tail  # the decoder may still hold a CR that ended this line


def _read_fast(path, fh, label_column: int, digest):
    """(features, raw_labels) from numpy's C reader, streamed from the binary
    file fh from its start, or None to hand the file to _read_exact. digest
    is fed with the bytes read.

    Only plain files qualify (see _plain_lines); on those, csv.reader splits
    a line exactly as str.split(",") does and loadtxt parses a float exactly
    as float() does. Anything the exact loop would reject (a bad label
    column, a reader error, a non-finite cell, no data rows, on which
    loadtxt would warn) returns None, so that only _read_exact raises."""
    lines = _plain_lines(fh, digest)
    try:
        first = next(lines)
        header = first and _is_header(path, first.split(","), label_column)
        rows = lines if header else itertools.chain([first], lines)
        row = next((line for line in rows if line), "")  # "": no data rows
        cells = row.split(",")
        lab_idx = _feature_layout(path, cells, label_column)
        layout = [("left", np.float64, (lab_idx,)), ("label", object),
                  ("right", np.float64, (len(cells) - 1 - lab_idx,))]
        table = np.loadtxt(itertools.chain([row], rows), dtype=layout, delimiter=",",
                           comments=None, ndmin=1)
    except (ValueError, DevdanError):  # not plain, or an error the exact loop may meet first
        return None
    feats = np.concatenate([table["left"], table["right"]], axis=1)
    if not np.isfinite(feats).all():
        return None
    return feats, [name.strip() for name in table["label"]]


def _parse_csv(path, fh, label_column: int, key):
    """(features, label ids, label names) of the binary file fh from its
    start, before scaling, and a copy of the hash key fed with the bytes
    parsed. Plain files stream through numpy's reader; the rest are read
    into memory for the exact loop."""
    digest = key.copy()
    parsed = _read_fast(path, fh, label_column, digest)
    if parsed is None:
        fh.seek(0)
        data = fh.read()
        digest = key.copy()
        digest.update(data)
        parsed = _read_exact(path, data, label_column)
    feats, raw_labels = parsed
    ids: dict[str, int] = {}  # label name -> id, in order of first appearance
    labels = np.fromiter((ids.setdefault(name, len(ids)) for name in raw_labels), np.int64,
                         len(raw_labels))
    return (feats, labels, list(ids)), digest


def _scaling_bounds(path, bounds, feats: np.ndarray):
    """(mins, maxs): each column's range, or bounds checked against the file."""
    if bounds is None:
        return feats.min(axis=0), feats.max(axis=0)
    n = feats.shape[1]
    try:
        mins, maxs = (np.asarray(b, dtype=np.float64) for b in bounds)
        ok = (mins.shape == maxs.shape == (n,) and np.isfinite(mins).all()
              and np.isfinite(maxs).all() and (maxs >= mins).all())
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"{path}: bounds {bounds!r} must be (mins, maxs), two finite 1-D "
                          f"arrays of {n} values, one per feature column, with maxs >= mins")
    return mins, maxs


def load_csv(path, label_column: int = -1, bounds=None):
    """Numeric CSV to normalized rows.

    Features are min-max scaled to [0, 1] (per-column bounds either supplied
    as an (mins, maxs) pair or taken from a first pass over the file);
    zero-range columns scale to 0. Labels map to dense ids 0..m-1 in order of
    first appearance. An optional header row is skipped if it fails to parse
    as numbers. Non-finite feature cells (nan, inf) are rejected. Plain files
    stream from the open file through numpy's C reader; the rest are read
    into memory and parsed cell by cell. Both give the same bytes. A parse is
    cached per user, keyed by the file's bytes (hashed in chunks), and a
    cached parse gives the same bytes too; neither holds the file's text.
    Returns (features, labels, label_names, (mins, maxs))."""
    from . import csv_cache  # imported at the first load: most runs read no CSV file

    with open(path, "rb") as fh:
        feats, labels, label_names = csv_cache.load(path, fh, label_column)
    mins, maxs = _scaling_bounds(path, bounds, feats)
    span = maxs - mins
    feats -= mins  # in place: the parse is stored or a fresh copy of the stored one
    np.divide(feats, span, out=feats, where=span != 0)
    feats[:, span == 0] = 0.0
    return feats, labels, label_names, (mins, maxs)


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_be32(fh, path):
    data = fh.read(4)
    if len(data) != 4:
        raise IdxFormatError(f"{path}: truncated header")
    return struct.unpack(">I", data)[0]


def _read_idx(path, magic: int, n_dims: int, what: str):
    """(dimensions, uint8 payload) of an IDX file of the given magic."""
    with open(path, "rb") as fh:
        found = _read_be32(fh, path)
        if found != magic:
            raise IdxFormatError(f"{path}: bad magic 0x{found:08x}")
        dims = [_read_be32(fh, path) for _ in range(n_dims)]
        payload = fh.read(math.prod(dims))
    if len(payload) != math.prod(dims):
        raise IdxFormatError(f"{path}: truncated {what} data")
    return dims, np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path, labels_path):
    """IDX image/label pair to (features, labels); pixels scaled by 1/255.

    Images flatten row-major to rows of length rows*cols."""
    (count, n_rows, n_cols), pixels = _read_idx(images_path, _IDX_IMAGE_MAGIC, 3, "pixel")
    (lab_count,), labels = _read_idx(labels_path, _IDX_LABEL_MAGIC, 1, "label")
    if lab_count != count:
        raise IdxFormatError(f"image count {count} does not match label count {lab_count}")
    pixels = pixels.reshape(count, n_rows * n_cols)
    return pixels.astype(np.float64) / 255.0, labels.astype(np.int64)


def permute_drift(rows: np.ndarray, schedule) -> np.ndarray:
    """Apply a per-segment pixel permutation to feature rows.

    schedule is a PAIRS list of (start_sample, permutation) whose every
    permutation is a bijection on the column indices (the identity is
    allowed); any other schedule raises a StructureError."""
    rows = np.asarray(rows)
    n = rows.shape[1]
    fits = PAIRS.within(lambda value: _schedule(value, lambda p: len(p) == n and _permutation(p)),
                        f"{PAIRS.of} of 0..{n - 1}")
    check("schedule", fits, schedule, error=StructureError)
    out = rows.copy()
    ends = [start for start, _ in schedule][1:] + [rows.shape[0]]
    for (start, perm), end in zip(schedule, ends):
        out[start:end] = rows[start:end][:, perm]
    return out


# -------------------------------------------------------------------- batching

def confidence_scores(probs: np.ndarray) -> np.ndarray:
    """Top-probability dominance y1 / (y1 + y2) per row; low means uncertain."""
    top2 = -np.partition(-probs, 1, axis=1)[:, :2] if probs.shape[1] > 1 else None
    if top2 is None:
        return np.ones(probs.shape[0])
    return top2[:, 0] / (top2[:, 0] + top2[:, 1])


def confidence_mask(probs, fraction: float, delta: float) -> np.ndarray:
    """Reveal labels for the least confident rows: conf < delta, capped at
    ceil(fraction * T) rows in ascending confidence order."""
    t = probs.shape[0]
    conf = confidence_scores(probs)
    cap = math.ceil(fraction * t)
    mask = np.zeros(t, dtype=bool)
    order = np.argsort(conf, kind="stable")
    chosen = [i for i in order if conf[i] < delta][:cap]
    mask[chosen] = True
    return mask


def batchify(
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    label_fraction: float = 1.0,
    selection_mode: str = "random",
    rng=None,
):
    """Split rows into consecutive non-overlapping batches of batch_size,
    truncating any tail, and pick each batch's revealed labels.

    random mode reveals ceil(fraction * T) uniformly chosen rows. confidence
    mode leaves labeled_mask None: the rows are chosen at test time from the
    model's prediction (see confidence_mask). The call checks its settings by
    DatasetSpec's fields of their names. Returns an iterator of StreamBatch objects."""
    check_fields(DatasetSpec, {"batch_size": batch_size, "label_fraction": label_fraction,
                               "selection_mode": selection_mode})
    rng = rng if rng is not None else np.random.default_rng()
    features = np.asarray(features)
    labels = np.asarray(labels)
    return (StreamBatch(features[k * batch_size:(k + 1) * batch_size],
                        labels[k * batch_size:(k + 1) * batch_size],
                        _revealed(batch_size, label_fraction, selection_mode, rng), k)
            for k in range(features.shape[0] // batch_size))


def _revealed(batch_size: int, label_fraction: float, selection_mode: str, rng):
    """One batch's labeled_mask (see batchify)."""
    if selection_mode == "confidence":
        return None
    if label_fraction >= 1.0:
        return np.ones(batch_size, dtype=bool)
    mask = np.zeros(batch_size, dtype=bool)
    mask[rng.choice(batch_size, size=math.ceil(label_fraction * batch_size), replace=False)] = True
    return mask


# --------------------------------------------------------------- dataset specs

@dataclass(frozen=True)
class DatasetSpec:
    """One experiment's data source, checked when made as DevdanConfig is.
    A spec holds at least one batch, and a csv or idx source names its files."""

    source: str = setting("sea", one_of(tuple(SOURCES)))
    total_samples: int = setting(100_000, COUNT)
    batch_size: int = setting(1000, COUNT)
    label_fraction: float = setting(1.0, NUMBER.within(lambda v: 0 < v <= 1, "a number in (0, 1]"))
    selection_mode: str = setting("random", one_of(SELECTION_MODES))
    # every confidence score is at least 0.5: a lower delta reveals no label
    delta: float = setting(0.7, NUMBER.within(lambda v: 0.5 < v < math.inf,
                                              "a finite number above 0.5"))
    csv_path: str | None = setting(None, STRING)
    label_column: int = setting(-1, INTEGER)
    idx_images: str | None = setting(None, STRING)
    idx_labels: str | None = setting(None, STRING)
    sea_schedule: tuple = setting(SEA_DEFAULT_SCHEDULE, SCHEDULE)
    permutations: tuple | None = setting(None, PAIRS)  # optional (start, permutation) schedule

    def __post_init__(self) -> None:
        check_fields(DatasetSpec, vars(self))
        check("total_samples", COUNT.within(lambda v: v >= self.batch_size,
                                            f"at least batch_size ({self.batch_size})"),
              self.total_samples)
        if self.source == "csv" and not self.csv_path:
            raise ConfigError("csv source needs csv_path")
        if self.source == "idx" and not (self.idx_images and self.idx_labels):
            raise ConfigError("idx source needs idx_images and idx_labels")


def materialize(spec: DatasetSpec, rng: np.random.Generator):
    """Rows for a DatasetSpec: (features, labels, n_in, n_classes).

    The row count is truncated to a whole number of batches; a file that
    holds no whole batch, or rows that all have one label, raise a
    ConfigError."""
    feats, labels = SOURCES[spec.source](spec, rng)
    feats, labels = feats[: spec.total_samples], labels[: spec.total_samples]
    if spec.permutations is not None:
        feats = permute_drift(feats, spec.permutations)
    usable = (feats.shape[0] // spec.batch_size) * spec.batch_size
    if usable == 0:
        raise ConfigError(f"the {spec.source} source holds {feats.shape[0]} rows, "
                          f"fewer than batch_size ({spec.batch_size})")
    feats, labels = feats[:usable], labels[:usable]
    if labels.min() == labels.max():
        raise ConfigError(f"the {spec.source} source gives all {usable} rows one label, "
                          "fewer than 2 classes")
    return feats, labels, feats.shape[1], int(labels.max()) + 1
