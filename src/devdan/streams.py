"""Data sources and batching.

Synthetic drift generators (SEA threshold flips, gradually mixed hyperplanes),
min-max-normalized CSV ingestion with a per-user parse cache, IDX image
ingestion with optional pixel permutation drift, and the batching step that
groups rows into per-timestamp batches and decides which labels are revealed.
"""
from __future__ import annotations

import csv as _csv
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CsvFormatError, IdxFormatError, StructureError

SEA_DEFAULT_SCHEDULE = ((0, 4.0), (25_000, 7.0), (50_000, 4.0), (75_000, 7.0))

HYPERPLANE_DEFAULT_CONCEPTS = (
    ((1.0, 1.0, 1.0, 1.0), 2.0),
    ((1.5, 1.0, 1.0, 0.5), 2.0),
)


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


def _check_schedule(schedule) -> list:
    sched = list(schedule)
    if not sched or sched[0][0] != 0:
        raise ConfigError("drift schedule must start at sample 0")
    starts = [s for s, _ in sched]
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ConfigError("drift schedule starts must be strictly increasing")
    return sched


def _segment_values(count: int, schedule) -> np.ndarray:
    """Per-sample parameter values from an ordered (start, value) schedule."""
    sched = _check_schedule(schedule)
    out = np.empty(count)
    for i, (start, value) in enumerate(sched):
        end = sched[i + 1][0] if i + 1 < len(sched) else count
        out[start:min(end, count)] = value
    return out


def gen_sea(count: int, schedule=SEA_DEFAULT_SCHEDULE, rng=None):
    """SEA stream: three uniform features on [0, 10] scaled to [0, 1].

    Class 0 when the raw first two features sum below the scheduled threshold,
    class 1 otherwise; the third feature is pure noise. Returns (features,
    labels)."""
    rng = rng if rng is not None else np.random.default_rng()
    raw = rng.uniform(0.0, 10.0, size=(count, 3))
    theta = _segment_values(count, schedule)
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

# Bytes that csv.reader with float(), str.splitlines and np.loadtxt all read
# alike: printable ASCII except the quote character, plus tab, CR and LF.
_PLAIN_CSV_BYTES = b"\t\n\r" + bytes(range(0x20, 0x7F)).replace(b'"', b"")


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
    for j, cell in enumerate(cells):
        if j == lab_idx:
            continue
        try:
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
            if not cells:
                continue
            if line_no == 1 and _is_header(path, cells, label_column):
                continue
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
            raise CsvFormatError(
                f"{path}:{line_no}: expected {width} cells, found {len(cells)}"
            )
        k = 0
        for j, cell in enumerate(cells):
            if j == lab_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                feats[r, k] = float(cell)
            except ValueError:
                raise CsvFormatError(f"{path}:{line_no}: non-numeric cell {cell!r}") from None
            k += 1
    finite = np.isfinite(feats)
    if not finite.all():
        r, k = np.argwhere(~finite)[0]
        raise CsvFormatError(f"{path}:{rows[r][0]}: non-finite cell {float(feats[r, k])!r}")
    return feats, raw_labels


def _read_fast(path, data: bytes, label_column: int):
    """(features, raw_labels) from numpy's C reader, or None to hand the file
    to _read_exact.

    Only plain files qualify (_PLAIN_CSV_BYTES, no line longer than the csv
    field limit); on those, csv.reader splits a line exactly as str.split(",")
    does and loadtxt parses a float exactly as float() does. Anything the exact
    loop would reject (a reader error, a non-finite cell, no data rows, on
    which loadtxt would warn) returns None, so that only _read_exact names a
    line in an error."""
    if data.translate(None, _PLAIN_CSV_BYTES):
        return None
    lines = data.decode("ascii").splitlines()
    if max(map(len, lines), default=0) > _csv.field_size_limit():
        return None
    start = 1 if lines and lines[0] and _is_header(path, lines[0].split(","), label_column) else 0
    body = lines[start:]
    first = next((line for line in body if line), None)
    if first is None:
        return None
    cells = first.split(",")
    lab_idx = _feature_layout(path, cells, label_column)
    layout = [("left", np.float64, (lab_idx,)), ("label", object),
              ("right", np.float64, (len(cells) - 1 - lab_idx,))]
    try:
        table = np.loadtxt(body, dtype=layout, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    feats = np.concatenate([table["left"], table["right"]], axis=1)
    if not np.isfinite(feats).all():
        return None
    return feats, [name.strip() for name in table["label"]]


def _parse_csv(path, data: bytes, label_column: int):
    """(features, label ids, label names) of a file's bytes, before scaling."""
    parsed = _read_fast(path, data, label_column)
    feats, raw_labels = parsed if parsed is not None else _read_exact(path, data, label_column)
    name_to_id: dict[str, int] = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for r, name in enumerate(raw_labels):
        labels[r] = name_to_id.setdefault(name, len(name_to_id))
    return feats, labels, list(name_to_id)


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
    are parsed by numpy's C reader, the rest cell by cell; both give the same
    bytes. A parse is cached per user, keyed by the file's bytes, and a cached
    parse gives the same bytes too. Returns (features, labels, label_names,
    (mins, maxs))."""
    with open(path, "rb") as fh:
        data = fh.read()
    from . import csv_cache  # imported at the first load: most runs read no CSV file

    entry = csv_cache.entry(data, label_column)
    parsed = csv_cache.read(entry)
    if parsed is None:
        parsed = _parse_csv(path, data, label_column)
        csv_cache.write(entry, *parsed)
    feats, labels, label_names = parsed
    mins, maxs = _scaling_bounds(path, bounds, feats)
    span = maxs - mins
    scaled = np.zeros_like(feats)
    np.divide(feats - mins, span, out=scaled, where=span != 0)
    return scaled, labels, label_names, (mins, maxs)


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_be32(fh, path):
    data = fh.read(4)
    if len(data) != 4:
        raise IdxFormatError(f"{path}: truncated header")
    return struct.unpack(">I", data)[0]


def load_idx(images_path, labels_path):
    """IDX image/label pair to (features, labels); pixels scaled by 1/255.

    Images flatten row-major to rows of length rows*cols."""
    with open(images_path, "rb") as fh:
        magic = _read_be32(fh, images_path)
        if magic != _IDX_IMAGE_MAGIC:
            raise IdxFormatError(f"{images_path}: bad magic 0x{magic:08x}")
        count = _read_be32(fh, images_path)
        n_rows = _read_be32(fh, images_path)
        n_cols = _read_be32(fh, images_path)
        payload = fh.read(count * n_rows * n_cols)
        if len(payload) != count * n_rows * n_cols:
            raise IdxFormatError(f"{images_path}: truncated pixel data")
        pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, n_rows * n_cols)
    with open(labels_path, "rb") as fh:
        magic = _read_be32(fh, labels_path)
        if magic != _IDX_LABEL_MAGIC:
            raise IdxFormatError(f"{labels_path}: bad magic 0x{magic:08x}")
        lab_count = _read_be32(fh, labels_path)
        payload = fh.read(lab_count)
        if len(payload) != lab_count:
            raise IdxFormatError(f"{labels_path}: truncated label data")
        labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    if lab_count != count:
        raise IdxFormatError(
            f"image count {count} does not match label count {lab_count}"
        )
    return pixels.astype(np.float64) / 255.0, labels


def permute_drift(rows: np.ndarray, schedule) -> np.ndarray:
    """Apply a per-segment pixel permutation to feature rows.

    schedule is an ordered list of (start_sample, permutation); each
    permutation must be a bijection on the column indices (the identity is
    allowed)."""
    rows = np.asarray(rows)
    n = rows.shape[1]
    sched = _check_schedule(schedule)
    out = rows.copy()
    for i, (start, perm) in enumerate(sched):
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise StructureError(f"schedule segment {i}: not a bijection on 0..{n - 1}")
        end = sched[i + 1][0] if i + 1 < len(sched) else rows.shape[0]
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
    model's prediction (see confidence_mask). Yields StreamBatch objects."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if selection_mode not in ("random", "confidence"):
        raise ConfigError(f"unknown selection_mode {selection_mode!r}")
    rng = rng if rng is not None else np.random.default_rng()
    features = np.asarray(features)
    labels = np.asarray(labels)
    n_batches = features.shape[0] // batch_size
    for k in range(n_batches):
        sl = slice(k * batch_size, (k + 1) * batch_size)
        if selection_mode == "confidence":
            mask = None
        elif label_fraction >= 1.0:
            mask = np.ones(batch_size, dtype=bool)
        else:
            n_labeled = math.ceil(label_fraction * batch_size)
            mask = np.zeros(batch_size, dtype=bool)
            mask[rng.choice(batch_size, size=n_labeled, replace=False)] = True
        yield StreamBatch(features[sl], labels[sl], mask, k)


# --------------------------------------------------------------- dataset specs

@dataclass
class DatasetSpec:
    """Declarative description of one experiment's data source."""

    source: str = "sea"                  # sea | hyperplane | csv | idx
    total_samples: int = 100_000
    batch_size: int = 1000
    label_fraction: float = 1.0
    selection_mode: str = "random"
    delta: float = 0.7
    csv_path: str | None = None
    label_column: int = -1
    bounds: tuple | None = None
    idx_images: str | None = None
    idx_labels: str | None = None
    sea_schedule: tuple = SEA_DEFAULT_SCHEDULE
    hyperplane_dim: int = 4
    hyperplane_concepts: tuple = HYPERPLANE_DEFAULT_CONCEPTS
    hyperplane_ramp: tuple = (0.4, 0.6)
    permutations: tuple | None = None    # optional (start, permutation) schedule

    def validate(self) -> None:
        if self.source not in ("sea", "hyperplane", "csv", "idx"):
            raise ConfigError(f"unknown source {self.source!r}")
        if self.total_samples < 1 or self.batch_size < 1:
            raise ConfigError("total_samples and batch_size must be >= 1")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ConfigError("label_fraction must lie in (0, 1]")
        if self.selection_mode not in ("random", "confidence"):
            raise ConfigError(f"unknown selection_mode {self.selection_mode!r}")
        if self.source == "csv" and not self.csv_path:
            raise ConfigError("csv source needs csv_path")
        if self.source == "idx" and not (self.idx_images and self.idx_labels):
            raise ConfigError("idx source needs idx_images and idx_labels")


def materialize(spec: DatasetSpec, rng: np.random.Generator):
    """Rows for a DatasetSpec: (features, labels, n_in, n_classes).

    The row count is truncated to a whole number of batches."""
    spec.validate()
    if spec.source == "sea":
        feats, labels = gen_sea(spec.total_samples, spec.sea_schedule, rng)
    elif spec.source == "hyperplane":
        feats, labels = gen_hyperplane(
            spec.total_samples,
            spec.hyperplane_dim,
            spec.hyperplane_concepts,
            spec.hyperplane_ramp,
            rng,
        )
    elif spec.source == "csv":
        feats, labels, _, _ = load_csv(spec.csv_path, spec.label_column, spec.bounds)
    else:
        feats, labels = load_idx(spec.idx_images, spec.idx_labels)
    if spec.source in ("csv", "idx"):
        feats = feats[: spec.total_samples]
        labels = labels[: spec.total_samples]
    if spec.permutations is not None:
        feats = permute_drift(feats, spec.permutations)
    usable = (feats.shape[0] // spec.batch_size) * spec.batch_size
    feats, labels = feats[:usable], labels[:usable]
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return feats, labels, feats.shape[1], n_classes
