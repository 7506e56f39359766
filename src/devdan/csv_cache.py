"""Per-user cache of parsed CSV files, for `streams.load_csv`.

An entry holds what a parse of a file's bytes produced before scaling: the
float64 features, the int64 label ids and the label names. It lives in
`cache_dir()`, the directory the compiled step is built into, as
csv-<sha256>.npz. The key covers everything a parse depends on: the reader's
source (streams.py and this module), the interpreter, numpy's version, the
label column, csv's field limit and the file's bytes, which `load` hashes
in chunks, so that a hit never holds them. The newest ENTRIES entries are
kept, by mtime, within MAX_BYTES in all, and a hit refreshes its entry's
mtime; a parse larger than MAX_BYTES // 4 is not stored. `load_csv` imports
this module at its first call, so `import devdan` does not.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import streams
from .kernel import ENTRIES, MAX_BYTES, cache_dir, evict


@functools.cache
def _reader_version() -> bytes | None:
    """A digest of the reader's source, or None where it cannot be read (a
    zip or frozen install): then nothing is cached."""
    key = hashlib.sha256()
    try:
        for source in (streams.__file__, __file__):
            key.update(Path(source).read_bytes())
    except Exception:  # no readable source file: a zip or frozen install
        return None
    return key.digest()


def load(path, fh, label_column: int):
    """`streams._parse_csv`'s parse of the binary file fh, read from the
    cache or parsed and stored. The key pass hashes the file in chunks. On a
    miss the parse pass hashes the bytes it parses, and the parse is stored
    under that digest: if the file changed between the passes, under its new
    bytes' key, not the key that missed."""
    digest = key(label_column)
    for chunk in iter(lambda: fh.read(streams._CHUNK), b""):
        digest.update(chunk)
    parsed = read(entry(digest))
    if parsed is None:
        fh.seek(0)
        parsed, digest = streams._parse_csv(path, fh, label_column, key(label_column))
        write(entry(digest), *parsed)
    return parsed


def key(label_column: int):
    """A sha256 fed with all a parse depends on but the file's bytes, which
    the caller feeds next: the reader's source, the interpreter, numpy's
    version, the label column and csv's field limit."""
    key = hashlib.sha256(_reader_version() or b"")
    for part in (sys.implementation.cache_tag or "", np.__version__, str(label_column),
                 str(csv.field_size_limit())):
        key.update(b"\0" + part.encode())
    key.update(b"\0")
    return key


def entry(digest) -> Path | None:
    """Where the parse of the bytes fed to digest (a key()) is kept, or None
    when it cannot be cached."""
    if _reader_version() is None:
        return None
    try:
        return cache_dir() / f"csv-{digest.hexdigest()}.npz"
    except RuntimeError:  # no home directory
        return None


def read(entry: Path | None):
    """(features, labels, names) stored in entry, or None unless the entry
    is whole and consistent. Nothing is unpickled, and zipfile checks each
    member's CRC-32 as numpy reads it to the end."""
    if entry is None:
        return None
    try:
        with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            feats, labels, names = npz["features"], npz["labels"], npz["names"]
        names = json.loads(names.tobytes()) if names.dtype == np.uint8 and names.ndim == 1 else None
    except Exception:  # an entry is untrusted bytes: whatever fails to read it is a miss
        return None
    if not (feats.dtype == np.float64 and feats.ndim == 2 and feats.size > 0
            and np.isfinite(feats).all()
            and labels.dtype == np.int64 and labels.shape == feats.shape[:1]
            and isinstance(names, list) and all(isinstance(n, str) for n in names)
            and 0 <= labels.min() and labels.max() < len(names)):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return feats, labels, names


def write(entry: Path | None, feats, labels, names) -> None:
    """Stores a parse that succeeded through a temporary file renamed into
    place, so that a concurrent reader sees no file or a whole one, then
    evicts (`kernel.evict`). A cache that cannot be written is skipped."""
    if entry is None or feats.nbytes + labels.nbytes > MAX_BYTES // 4:
        return
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".csv-", suffix=".tmp", dir=entry.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, features=feats, labels=labels,
                         names=np.frombuffer(json.dumps(names).encode(), dtype=np.uint8))
            os.replace(tmp, entry)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        evict(entry, "csv-*.npz", ENTRIES, MAX_BYTES)
    except OSError:
        pass
