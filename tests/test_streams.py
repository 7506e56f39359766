"""Stream sources: generator label laws against geometric probabilities,
file-format loaders against hand-built fixtures, the CSV parse cache, and
batching/label-masking rules."""
import csv
import hashlib
import io
import json
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from devdan import csv_cache as cache
from devdan import kernel, streams
from devdan.checkpoint import state_hash
from devdan.errors import ConfigError, CsvFormatError, IdxFormatError, StructureError
from devdan.model import DevdanConfig, DevdanModel
from devdan.prequential import run_prequential, run_single, run_suite
from devdan.streams import (
    PAIRS,
    DatasetSpec,
    batchify,
    confidence_mask,
    confidence_scores,
    gen_hyperplane,
    gen_sea,
    load_csv,
    load_idx,
    materialize,
    permute_drift,
)


class TestSea:
    def test_inequality_hand_cases(self):
        # below the threshold is class 0, at or above is class 1
        feats, labels = gen_sea(5000, ((0, 4.0),), np.random.default_rng(0))
        raw = feats * 10.0
        below = raw[:, 0] + raw[:, 1] < 4.0
        assert np.array_equal(labels == 0, below)
        assert below.any() and (~below).any()

    def test_features_unit_interval(self):
        feats, _ = gen_sea(10_000, rng=np.random.default_rng(1))
        assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_segment_class_balance_matches_triangle_area(self):
        # P(f1 + f2 < t) on [0,10]^2 is t^2/200: 0.08 at t=4, 0.245 at t=7
        feats, labels = gen_sea(100_000, rng=np.random.default_rng(2))
        segments = [(0, 25_000, 0.08), (25_000, 50_000, 0.245),
                    (50_000, 75_000, 0.08), (75_000, 100_000, 0.245)]
        for lo, hi, p in segments:
            n = hi - lo
            rate = float(np.mean(labels[lo:hi] == 0))
            assert abs(rate - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_schedule_boundary_is_exact(self):
        rng = np.random.default_rng(3)
        feats, labels = gen_sea(20, ((0, 4.0), (10, 7.0)), rng)
        raw_sum = (feats[:, 0] + feats[:, 1]) * 10.0
        theta = np.where(np.arange(20) < 10, 4.0, 7.0)
        np.testing.assert_array_equal(labels, (raw_sum >= theta).astype(np.int64))

    def test_seeded_streams_identical(self):
        a = gen_sea(1000, rng=np.random.default_rng(4))
        b = gen_sea(1000, rng=np.random.default_rng(4))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_bad_schedule(self):
        with pytest.raises(ConfigError):
            gen_sea(10, ((5, 4.0),), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            gen_sea(10, ((0, 4.0), (3, 7.0), (3, 4.0)), np.random.default_rng(0))

    @pytest.mark.parametrize("schedule, shown", [
        ([[]], "[[]]"), ([(0,)], "[[0]]"), ("x", '"x"'), ([[5, 4.0]], "[[5, 4.0]]"),
        ([[0, 4.0], [0, 7.0]], "[[0, 4.0], [0, 7.0]]"), ([[0, "4"]], '[[0, "4"]]'),
        ([[0.5, 4.0]], "[[0.5, 4.0]]"), ([[0, float("nan")]], "[[0, nan]]"),
        ([[0, float("inf")]], "[[0, inf]]"),
    ])
    def test_schedule_refused_by_its_kind(self, schedule, shown):
        """A schedule that is no list of [start, threshold] pairs with integer
        starts rising from 0 and finite thresholds is a ConfigError naming
        it, before any draw."""
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match=rf"^schedule is {re.escape(shown)}, expected a list "
                                              r"of \[start, threshold\] pairs, the starts integers "
                                              r"rising from 0 and each threshold a finite number$"):
            gen_sea(10, schedule, rng)
        assert rng.bit_generator.state == before


class TestHyperplane:
    def test_flat_zero_ramp_uses_first_concept(self):
        concepts = (((1.0, 1.0, 0.0, 0.0), 1.0), ((0.0, 0.0, 1.0, 1.0), 1.0))
        feats, labels = gen_hyperplane(
            2000, concepts=concepts, ramp=(1.0, 1.0), rng=np.random.default_rng(5)
        )
        expect = (feats @ np.array([1.0, 1.0, 0.0, 0.0]) > 1.0).astype(np.int64)
        # final sample sits exactly at the ramp start; exclude it
        np.testing.assert_array_equal(labels[:-1], expect[:-1])

    def test_point_above_plane(self):
        concepts = (((1.0, 1.0, 0.0, 0.0), 1.0), ((1.0, 1.0, 0.0, 0.0), 1.0))
        feats, labels = gen_hyperplane(
            500, concepts=concepts, ramp=(0.4, 0.6), rng=np.random.default_rng(6)
        )
        hot = feats @ np.array([1.0, 1.0, 0.0, 0.0]) > 1.0
        np.testing.assert_array_equal(labels.astype(bool), hot)
        assert (0.9 + 0.9) > 1.0  # the hand case the law encodes

    def test_disagreement_rate_matches_analytic_volume(self):
        # axis-aligned concepts disagree exactly when x1, x2 straddle 0.5:
        # volume 0.5 by symmetry
        concepts = (((1.0, 0.0, 0.0, 0.0), 0.5), ((0.0, 1.0, 0.0, 0.0), 0.5))
        rng = np.random.default_rng(7)
        feats = rng.uniform(size=(10_000, 4))
        lab_a = feats @ np.array(concepts[0][0]) > concepts[0][1]
        lab_b = feats @ np.array(concepts[1][0]) > concepts[1][1]
        flip_rate = float(np.mean(lab_a != lab_b))
        assert abs(flip_rate - 0.5) < 3 * np.sqrt(0.25 / 10_000)

    def test_full_ramp_uses_second_concept(self):
        concepts = (((1.0, 1.0, 0.0, 0.0), 1.0), ((0.0, 0.0, 1.0, 1.0), 1.0))
        feats, labels = gen_hyperplane(
            2000, concepts=concepts, ramp=(0.0, 0.0), rng=np.random.default_rng(8)
        )
        expect = (feats @ np.array([0.0, 0.0, 1.0, 1.0]) > 1.0).astype(np.int64)
        np.testing.assert_array_equal(labels, expect)


class TestLoadCsv:
    def test_three_row_toy_exact_scaling(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("0.0,10.0,a\n5.0,20.0,b\n10.0,30.0,a\n")
        feats, labels, names, (mins, maxs) = load_csv(path)
        np.testing.assert_allclose(feats, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        assert labels.tolist() == [0, 1, 0]
        assert names == ["a", "b"]
        np.testing.assert_array_equal(mins, [0.0, 10.0])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f1,f2,label\n1.0,2.0,x\n3.0,4.0,y\n")
        feats, labels, names, _ = load_csv(path)
        assert feats.shape == (2, 2) and names == ["x", "y"]

    def test_constant_column_scales_to_zero(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("7.0,1.0,a\n7.0,2.0,b\n")
        feats, *_ = load_csv(path)
        np.testing.assert_array_equal(feats[:, 0], [0.0, 0.0])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        rows = rng.uniform(size=(20, 3))
        labels = rng.integers(3, size=20)
        path = tmp_path / "rt.csv"
        with open(path, "w") as fh:
            for r, lab in zip(rows, labels):
                fh.write(",".join(repr(float(v)) for v in r) + f",{lab}\n")
        feats, got_labels, _, (mins, maxs) = load_csv(path)
        rescaled = feats * (maxs - mins) + mins
        np.testing.assert_allclose(rescaled, rows, atol=1e-12)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,2.0,a\n3.0,b\n")
        with pytest.raises(CsvFormatError, match=":2"):
            load_csv(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1.0,2.0,a\nx.y,4.0,b\n")
        with pytest.raises(CsvFormatError, match=":2"):
            load_csv(path)

    def test_non_finite_cell_reports_line(self, tmp_path):
        for cell in ("nan", "inf", "-Infinity"):
            path = tmp_path / "f.csv"
            path.write_text(f"f1,f2,label\n1.0,2.0,a\n3.0,{cell},b\n")
            with pytest.raises(CsvFormatError, match=r"f\.csv:3: non-finite"):
                load_csv(path)

    def test_label_column_selectable(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("a,1.0,2.0\nb,3.0,4.0\n")
        feats, labels, names, _ = load_csv(path, label_column=0)
        assert feats.shape == (2, 2)
        assert names == ["a", "b"]

    @pytest.mark.parametrize("label_column", [3, 5, -4])
    def test_label_column_outside_the_row(self, tmp_path, label_column):
        path = tmp_path / "w.csv"
        path.write_text("1.0,2.0,a\n3.0,4.0,b\n")
        for read in (load_csv, exact_load_csv):
            with pytest.raises(ConfigError, match=f"label_column {label_column} .* 3 cells"):
                read(path, label_column)

    def test_label_only_rows_have_no_features(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a\nb\n")
        for read in (load_csv, exact_load_csv):
            with pytest.raises(CsvFormatError, match=r"one\.csv: no feature columns"):
                read(path)

    def test_byte_order_mark_is_not_part_of_the_first_row(self, tmp_path):
        plain = b"0.5,0.25,a\n0.75,0.5,b\n1.0,0.0,a\n"
        path, plain_path = tmp_path / "bom.csv", tmp_path / "plain.csv"
        path.write_bytes(b"\xef\xbb\xbf" + plain)
        plain_path.write_bytes(plain)
        got = load_csv(path)
        assert got[0].shape == (3, 2) and got[2] == ["a", "b"]
        assert_same_load(got, load_csv(plain_path))
        assert_same_load(got, exact_load_csv(path))

    def test_byte_order_mark_counts_in_the_non_utf8_offset(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0,a\n3.0,4.0,\xff\n")
        with pytest.raises(CsvFormatError, match=r"bom\.csv: not UTF-8 at byte 21"):
            load_csv(path)

    @pytest.mark.parametrize("bounds", [
        ([0, 0, 0], [1, 1, 1]),
        ([0, np.nan], [1, 1]),
        ([0, 0], [1, np.inf]),
        ([1, 1], [0, 0]),
        ([0], [1]),
        ([[0, 0]], [[1, 1]]),
        (0, 1),
        (["a", "b"], [1, 1]),
        ([0, 0],),
        ([0, 0], [1, 1], [2, 2]),
    ])
    def test_bad_bounds_are_config_errors(self, tmp_path, csv_cache, bounds):
        path = tmp_path / "b.csv"
        path.write_text("0.0,10.0,a\n5.0,20.0,b\n")
        for _ in range(2):  # a miss that stores the parse, then a hit
            with pytest.raises(ConfigError, match=r"b\.csv: bounds .* of 2 values"):
                load_csv(path, bounds=bounds)
        assert len(list(csv_cache.glob("csv-*"))) == 1

    def test_given_bounds_scale_on_a_miss_and_a_hit(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.0,10.0,a\n5.0,20.0,b\n")
        for _ in range(2):
            feats, _, _, (mins, maxs) = load_csv(path, bounds=([0, 20], [10, 20]))
            assert feats.tolist() == [[0.0, 0.0], [0.5, 0.0]]
            assert mins.tolist() == [0.0, 20.0] and maxs.tolist() == [10.0, 20.0]

    def test_non_utf8_bytes_name_the_offset(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"1.0,2.0,a\n3.0,4.0,\xff\n")
        with pytest.raises(CsvFormatError, match=r"bin\.csv: not UTF-8 at byte 18"):
            load_csv(path)

    def test_oversize_field_names_the_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1.0,2.0,a\n1.0,2.0,b\n" + "0" * (csv.field_size_limit() + 1) + "1,2.0,c\n")
        for read in (load_csv, exact_load_csv):
            with pytest.raises(CsvFormatError, match=r"big\.csv:3: field larger than field limit"):
                read(path)

    def test_savetxt_file_takes_numpys_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(14)
        feats, labels = gen_hyperplane(300, 8, (((1.0,) * 8, 4.0), ((1.5,) + (1.0,) * 7, 4.0)), rng=rng)
        path = tmp_path / "saved.csv"
        header = ",".join([f"f{j}" for j in range(8)] + ["label"])
        np.savetxt(path, np.column_stack([feats, labels]), fmt=["%.17g"] * 8 + ["%d"],
                   delimiter=",", header=header, comments="")
        expected = exact_load_csv(path)

        def no_exact_loop(*args):
            raise AssertionError("the exact loop ran")

        monkeypatch.setattr(streams, "_read_exact", no_exact_loop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load_csv(path)
        assert_same_load(got, expected)
        np.testing.assert_allclose(got[0] * (got[3][1] - got[3][0]) + got[3][0], feats, atol=1e-12)

    @pytest.mark.parametrize("text", ["", "f1,f2,label\n", "\n\r\n"])
    def test_no_data_rows_raise_without_a_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match=r"empty\.csv: no data rows"):
                load_csv(path)

    @pytest.mark.parametrize("text, label_column", [
        ("1,2,3\r\n4,5,6\r\n", 0),
        ("1,2,3\r4,5,6\r", 1),
        ("1,2,3\r\r\n4,5,6", -1),
        ("\n1,2,3\n\n4,5,6\n\n", -3),
        (" 1 ,\t2, a \n-3e-2,+4.,b\n", -1),
        ("1,2,3,\n4,5,6,\n", 3),
        ("1,2,\n3,4,\n", -1),
        ("x,y,#c\n1,2,a\n3,4,b\n", 2),
        ("a,1,2\nb,3,4", 0),
    ])
    def test_edge_files_take_numpys_reader(self, tmp_path, text, label_column):
        path = tmp_path / "edge.csv"
        path.write_text(text, newline="")
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            assert streams._read_fast(path, fh, label_column, digest) is not None
        assert digest.digest() == hashlib.sha256(path.read_bytes()).digest()
        assert_same_load(load_csv(path, label_column), exact_load_csv(path, label_column))

    @pytest.mark.parametrize("text", [
        "1,2,a\n \n3,4,b\n",
        "1,2,a\n#c\n3,4,b\n",
        "1_000,2,a\n3,4,b\n",
        "1,2,a\n1e400,4,b\n",
        '"1",2,a\n3,4,b\n',
        "1,2,é\n3,4,b\n",
        "1,2,a\n3,4\n",
        "1,2\x0c3,4\n5,6\n",
        "\n\r\n",
    ])
    def test_other_files_go_to_the_exact_loop(self, tmp_path, text):
        path = tmp_path / "other.csv"
        path.write_text(text, newline="", encoding="utf-8")
        with open(path, "rb") as fh:
            assert streams._read_fast(path, fh, -1, hashlib.sha256()) is None


def exact_load_csv(path, label_column=-1):
    """load_csv with numpy's reader and the parse cache switched off: the
    cell-by-cell loop only."""
    with mock.patch.object(streams, "_read_fast", lambda *args: None), \
            mock.patch.object(cache, "entry", lambda digest: None):
        return load_csv(path, label_column)


def assert_same_load(got, expected):
    feats, labels, names, (mins, maxs) = got
    for a, b in ((feats, expected[0]), (labels, expected[1]),
                 (mins, expected[3][0]), (maxs, expected[3][1])):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert feats.flags.c_contiguous
    assert names == expected[2]


def outcome(read, path, label_column):
    try:
        return "ok", read(path, label_column)
    except Exception as exc:  # the type and message are compared
        return "error", (type(exc), str(exc))


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.builds("{:.{}e}".format, st.floats(-1e6, 1e6), st.integers(0, 17)),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "-0", "+0.5", ".5", "5.", "-1E-3", "1e+05", "007"]),
)
ODD_CELLS = st.sampled_from([
    "1_000", "nan", "-inf", "Infinity", "1e400", "-1e400", "", " ", "0x10", "1.2.3",
    "abc", "#1", '"1.5"', '"a,b"', "1e", "\u00e9", "1\u00a0", "2\x0c", "\x1c3",
])
PLAIN_LABELS = st.sampled_from(["0", "1", "2", "a", "b", " a", "b ", "\tc", "", "#"])
LABELS = st.one_of(PLAIN_LABELS, st.text(st.sampled_from("xy\u00e9\u00df\u65e5 "), max_size=3))
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
EXTRA_LINES = st.sampled_from(["", " ", "\t", "#comment", "# 1,2,3"])


@st.composite
def csv_files(draw):
    """(text, label_column) from a cell grammar. About half the files are
    plain (numbers, ASCII labels, any line ends, blank lines), the kind numpy's
    reader takes; the rest mix in odd cells, labels, rows and lines."""
    odd = draw(st.booleans())
    width = draw(st.integers(1 if odd else 2, 5))
    lab_idx = draw(st.sampled_from(sorted({0, width // 2, width - 1})))
    label_column = draw(st.sampled_from([lab_idx, lab_idx - width]))
    if odd and draw(st.integers(0, 9)) == 0:
        label_column = draw(st.integers(-width - 2, width + 2))
    cell = st.one_of(NUMBER_CELLS, ODD_CELLS) if odd else NUMBER_CELLS
    label = LABELS if odd else PLAIN_LABELS
    pad = st.sampled_from(["", "", " ", "  ", "\t"])
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(f"c{j}" for j in range(width)))
    for _ in range(draw(st.integers(0 if odd else 1, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(EXTRA_LINES) if odd else "")
            continue
        n = width + (draw(st.sampled_from([-1, 1])) if odd and draw(st.integers(0, 9)) == 0 else 0)
        cells = [draw(label) if j == lab_idx else draw(pad) + draw(cell) + draw(pad)
                 for j in range(max(n, 0))]
        lines.append(",".join(cells))
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, label_column


@settings(max_examples=300, deadline=None)
@given(case=csv_files())
def test_load_csv_matches_the_exact_loop(tmp_path_factory, case):
    """A miss (parse and store), a hit and the cell-by-cell loop alone give
    the same bytes or the same error; an error is never stored."""
    text, label_column = case
    folder = tmp_path_factory.mktemp("parity")
    path = folder / "gen.csv"
    path.write_bytes(text.encode("utf-8"))
    fast, calls, parsed = streams._read_fast, [], []

    def read_fast(*args):
        calls.append(args)
        parsed.append(fast(*args))
        return parsed[-1]

    with mock.patch.object(cache, "cache_dir", lambda: folder / "cache"), \
            mock.patch.object(streams, "_read_fast", read_fast):
        miss = outcome(load_csv, path, label_column)
        hit = outcome(load_csv, path, label_column)
    expected = outcome(exact_load_csv, path, label_column)
    event("numpy's reader" if parsed and parsed[0] is not None else "exact loop")
    stored = list((folder / "cache").glob("csv-*"))
    assert len(stored) == (miss[0] == "ok")
    assert len(calls) == (1 if miss[0] == "ok" else 2)
    for got in (miss, hit):
        assert got[0] == expected[0]
        if got[0] == "error":
            assert got[1] == expected[1]
        else:
            assert_same_load(got[1], expected[1])


class TestCsvCache:
    """load_csv's per-user parse cache (csv-<key>.npz files in csv_cache.cache_dir())."""

    def write_csv(self, path, seed=0, rows=50):
        rng = np.random.default_rng(seed)
        feats = rng.uniform(size=(rows, 3))
        labels = rng.choice(["up", "down", "fl\u00e4t"], size=rows)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,z,label\n")
            for r, lab in zip(feats, labels):
                fh.write(",".join(repr(float(v)) for v in r) + f",{lab}\n")
        return path

    def entries(self, folder):
        return sorted(folder.glob("csv-*"))

    def test_hit_skips_the_parse(self, tmp_path, csv_cache):
        path = self.write_csv(tmp_path / "a.csv")
        expected = exact_load_csv(path)
        assert_same_load(load_csv(path), expected)
        (entry,) = self.entries(csv_cache)
        os.utime(entry, (1, 1))
        with mock.patch.object(streams, "_parse_csv", side_effect=AssertionError("parsed")):
            assert_same_load(load_csv(path), expected)
        assert entry.stat().st_mtime > 1  # the hit refreshed it

    def test_key_covers_the_label_column(self, tmp_path, csv_cache):
        path = tmp_path / "l.csv"
        path.write_text("1,2,3\n4,5,6\n")
        for label_column in (0, -1, 1, 2):
            assert_same_load(load_csv(path, label_column), exact_load_csv(path, label_column))
        assert len(self.entries(csv_cache)) == 4

    def test_key_covers_the_reader_python_numpy_and_the_field_limit(self, tmp_path, csv_cache,
                                                           monkeypatch):
        path = self.write_csv(tmp_path / "k.csv")
        limit = csv.field_size_limit()
        other_python = SimpleNamespace(implementation=SimpleNamespace(cache_tag="other-00"))
        changes = [lambda: monkeypatch.setattr(cache, "_reader_version", lambda: b"other"),
                   lambda: monkeypatch.setattr(cache, "sys", other_python),
                   lambda: monkeypatch.setattr(np, "__version__", "0.0"),
                   lambda: csv.field_size_limit(limit + 1)]
        try:
            load_csv(path)
            for n, change in enumerate(changes, start=2):
                change()
                load_csv(path)
                assert len(self.entries(csv_cache)) == n
        finally:
            csv.field_size_limit(limit)

    @staticmethod
    def npz(**arrays):
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()

    def bad_entries(self, good: bytes):
        feats = np.array([[0.5, 1.0], [0.25, 2.0]])
        names = np.frombuffer(json.dumps(["a", "b"]).encode(), dtype=np.uint8)
        flipped = bytearray(good)
        flipped[len(good) // 3] ^= 0x01  # inside the features: caught by the CRC
        yield "empty", b""
        yield "truncated", good[: len(good) // 2]
        yield "flipped", bytes(flipped)
        yield "not a zip", b"\x93NUMPY" + good
        yield "npy", _npy(feats)
        yield "names as text", self.npz(features=feats, labels=np.array([0, 1]),
                                        names=np.array([json.dumps(["a", "b"])]))
        yield "pickled names", self.npz(features=feats, labels=np.array([0, 1]),
                                        names=np.array(["a", "b"], dtype=object))
        yield "names not JSON", self.npz(features=feats, labels=np.array([0, 1]),
                                         names=np.frombuffer(b"[a", dtype=np.uint8))
        yield "names not strings", self.npz(features=feats, labels=np.array([0, 1]),
                                            names=np.frombuffer(b"[1, 2]", dtype=np.uint8))
        yield "missing labels", self.npz(features=feats, names=names)
        yield "short labels", self.npz(features=feats, labels=np.array([0]), names=names)
        yield "label out of range", self.npz(features=feats, labels=np.array([0, 2]), names=names)
        yield "negative label", self.npz(features=feats, labels=np.array([0, -1]), names=names)
        yield "int32 labels", self.npz(features=feats, labels=np.array([0, 1], np.int32),
                                       names=names)
        yield "non-finite", self.npz(features=feats * np.array([1.0, np.inf]),
                                     labels=np.array([0, 1]), names=names)
        yield "1-D features", self.npz(features=feats[0], labels=np.array([0]), names=names)
        yield "float32 features", self.npz(features=feats.astype(np.float32),
                                           labels=np.array([0, 1]), names=names)
        yield "no rows", self.npz(features=feats[:0], labels=np.array([], np.int64),
                                  names=names)

    def test_bad_entry_is_parsed_again_and_overwritten(self, tmp_path, csv_cache):
        path = self.write_csv(tmp_path / "b.csv")
        expected = exact_load_csv(path)
        load_csv(path)
        (entry,) = self.entries(csv_cache)
        good = entry.read_bytes()
        for name, content in self.bad_entries(good):
            entry.write_bytes(content)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert_same_load(load_csv(path), expected)
            assert cache.read(entry) is not None, name
            assert self.entries(csv_cache) == [entry], name

    def test_unwritable_cache_still_loads(self, tmp_path, monkeypatch):
        path = self.write_csv(tmp_path / "c.csv")
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setattr(cache, "cache_dir", lambda: blocker / "devdan")
        expected = exact_load_csv(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                assert_same_load(load_csv(path), expected)
        assert blocker.read_text() == ""

    def test_same_path_new_content_misses(self, tmp_path, csv_cache):
        path = self.write_csv(tmp_path / "d.csv", seed=1)
        first = load_csv(path)
        self.write_csv(path, seed=2)
        second = load_csv(path)
        assert_same_load(second, exact_load_csv(path))
        assert first[0].tobytes() != second[0].tobytes()
        assert len(self.entries(csv_cache)) == 2

    def test_failed_parse_stores_nothing(self, tmp_path, csv_cache):
        path = tmp_path / "e.csv"
        path.write_text("1.0,2.0,a\n3.0,b\n")
        for _ in range(2):
            with pytest.raises(CsvFormatError, match=r"e\.csv:2"):
                load_csv(path)
        assert not list(csv_cache.iterdir())

    def test_newest_entries_are_kept(self, tmp_path, csv_cache):
        """Eviction keeps the csv_cache.ENTRIES entries with the newest mtimes;
        a hit makes its entry the newest."""
        keep = cache.ENTRIES
        paths = [tmp_path / f"f{i}.csv" for i in range(keep + 4)]
        stored = []
        for i, path in enumerate(paths):
            path.write_text(f"{i},1,a\n2,{i},b\n")
            load_csv(path)
            (new,) = set(self.entries(csv_cache)) - set(stored)
            os.utime(new, (i + 1, i + 1))  # file times are too coarse to order writes
            stored.append(new)
            if i == keep - 1:
                load_csv(paths[0])  # refreshes stored[0] past every other entry
        assert self.entries(csv_cache) == sorted([stored[0]] + stored[-(keep - 1):])
        (csv_cache / "unrelated.npz").write_bytes(b"")
        load_csv(tmp_path / "f1.csv")
        assert len(self.entries(csv_cache)) == keep
        assert (csv_cache / "unrelated.npz").exists()

    def test_entries_fit_in_the_byte_budget(self, tmp_path, csv_cache, monkeypatch):
        """Eviction also removes the oldest entries until the rest fit in
        MAX_BYTES, and a parse larger than a quarter of it is not stored."""
        paths = [self.write_csv(tmp_path / f"s{i}.csv", seed=i) for i in range(5)]
        load_csv(paths[0])
        (first,) = self.entries(csv_cache)
        size = first.stat().st_size
        monkeypatch.setattr(cache, "MAX_BYTES", 4 * size + size // 2)
        stored = [first]
        for i, path in enumerate(paths[1:], start=1):
            os.utime(stored[-1], (i, i))  # file times are too coarse to order writes
            load_csv(path)
            (new,) = set(self.entries(csv_cache)) - set(stored)
            stored.append(new)
        assert self.entries(csv_cache) == sorted(stored[1:])
        big = self.write_csv(tmp_path / "big.csv", seed=9, rows=150)
        for _ in range(2):
            assert_same_load(load_csv(big), exact_load_csv(big))
        assert self.entries(csv_cache) == sorted(stored[1:])

    def test_stale_temporary_files_are_removed(self, tmp_path, csv_cache):
        stale, fresh = csv_cache / ".csv-stale.tmp", csv_cache / ".csv-fresh.tmp"
        for tmp in (stale, fresh):
            tmp.write_bytes(b"partial")
        old = time.time() - kernel.STALE_TMP_S - 60
        os.utime(stale, (old, old))
        load_csv(self.write_csv(tmp_path / "t.csv"))
        assert not stale.exists() and fresh.exists()
        assert len(self.entries(csv_cache)) == 1

    def test_unreadable_reader_source_loads_without_the_cache(self, tmp_path, csv_cache,
                                                             monkeypatch):
        """From a zip or frozen install the reader's source cannot be read:
        load_csv then parses every time and stores nothing."""
        path = self.write_csv(tmp_path / "z.csv")
        expected = exact_load_csv(path)
        monkeypatch.setattr(cache, "__file__", str(tmp_path / "missing" / "csv_cache.py"))
        cache._reader_version.cache_clear()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for _ in range(2):
                    assert_same_load(load_csv(path), expected)
        finally:
            cache._reader_version.cache_clear()
        assert not list(csv_cache.iterdir())

    def test_new_entry_outlives_entries_with_later_mtimes(self, tmp_path, csv_cache):
        later = time.time() + 3600
        for i in range(cache.ENTRIES):
            stale = csv_cache / f"csv-{i:064x}.npz"
            stale.write_bytes(b"")
            os.utime(stale, (later, later))
        load_csv(self.write_csv(tmp_path / "n.csv"))
        entries = self.entries(csv_cache)
        assert len(entries) == cache.ENTRIES
        assert [e for e in entries if e.stat().st_mtime < later]  # the new one

    def test_file_changed_mid_load_is_read_again(self, tmp_path, csv_cache):
        """A file rewritten between the key pass and the parse pass: nothing
        is stored under the old key, and the load returns the parse of the
        new bytes, read once, and stores it under their own key."""
        path = self.write_csv(tmp_path / "m.csv", seed=1)
        real_entry, keyed = cache.entry, []

        def entry_then_rewrite(digest):
            where = real_entry(digest)
            if not keyed:  # the key pass is done: rewrite before the parse pass
                keyed.append(where)
                self.write_csv(path, seed=2, rows=60)
            return where

        with mock.patch.object(cache, "entry", entry_then_rewrite):
            got = load_csv(path)
        assert got[0].shape == (60, 3)
        assert_same_load(got, exact_load_csv(path))
        (stored,) = self.entries(csv_cache)
        assert stored != keyed[0]
        with mock.patch.object(streams, "_parse_csv", side_effect=AssertionError("parsed")):
            assert_same_load(load_csv(path), got)

    def test_loads_hold_no_copy_of_the_text(self, tmp_path, csv_cache):
        """The tracemalloc peak of a load of a 3.2 MB file stays under 1.5 times
        the file's size on a miss and 1.0 times on a hit (0.90 and 0.58
        measured; 3.35 and 2.27 when the text was decoded and split in memory
        and the features scaled out of place)."""
        rng = np.random.default_rng(17)
        feats, labels = gen_hyperplane(20_000, 8, (((1.0,) * 8, 4.0), ((1.5,) + (1.0,) * 7, 4.0)),
                                       rng=rng)
        path = tmp_path / "mem.csv"
        np.savetxt(path, np.column_stack([feats, labels]), fmt=["%.17g"] * 8 + ["%d"],
                   delimiter=",", header=",".join([f"f{j}" for j in range(8)] + ["label"]),
                   comments="")
        del feats, labels
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):  # a miss that stores the parse, then a hit
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                load_csv(path)
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / path.stat().st_size)
        finally:
            tracemalloc.stop()
        assert len(self.entries(csv_cache)) == 1
        assert peaks[0] < 1.5 and peaks[1] < 1.0, peaks

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="suite workers must inherit the test's cache directory")
    def test_suite_same_on_a_cold_and_a_warm_cache(self, tmp_path, csv_cache):
        feats, labels = gen_hyperplane(600, rng=np.random.default_rng(16))
        path = tmp_path / "hyper.csv"
        np.savetxt(path, np.column_stack([feats, labels]), fmt=["%.17g"] * 4 + ["%d"],
                   delimiter=",")
        ds = DatasetSpec(source="csv", csv_path=str(path), total_samples=600, batch_size=100,
                         label_fraction=0.5)
        runs = []
        for _ in range(2):
            result = run_suite(ds, DevdanConfig(), seeds=[0, 1], jobs=2)
            assert len(self.entries(csv_cache)) == 1  # written by the workers
            runs.append((result["summary"], [state_hash(r.model) for r in result["rows"]]))
        assert runs[0] == runs[1]
        assert runs[0][0]["default"]["failures"] == 0

    def test_import_devdan_leaves_the_cache_unloaded(self):
        code = "import sys, devdan; print('devdan.csv_cache' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(streams.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "False"

    def test_lives_in_the_kernels_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "cache_dir", kernel.cache_dir)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        load_csv(self.write_csv(tmp_path / "g.csv"))
        assert len(self.entries(tmp_path / "xdg" / "devdan")) == 1

    @pytest.mark.parametrize("xdg", ["rel", "./rel", "~/rel", ""])
    def test_relative_xdg_cache_home_is_ignored(self, tmp_path, monkeypatch, xdg):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        assert kernel.cache_dir() == tmp_path / "home" / ".cache" / "devdan"
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "abs"))
        assert kernel.cache_dir() == tmp_path / "abs" / "devdan"


def _npy(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def write_idx_pair(tmp_path, images, labels):
    img_path = tmp_path / "img.idx"
    lab_path = tmp_path / "lab.idx"
    count, rows, cols = images.shape
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, count, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, len(labels)))
        fh.write(bytes(labels))
    return img_path, lab_path


class TestLoadIdx:
    def test_two_image_fixture_exact(self, tmp_path):
        images = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
        images[1, 1, 2] = 255
        img, lab = write_idx_pair(tmp_path, images, [4, 9])
        feats, labels = load_idx(img, lab)
        assert feats.shape == (2, 6)
        np.testing.assert_allclose(feats[0], np.arange(6) / 255.0)
        assert feats[1, 5] == 1.0  # pixel 255 maps to exactly one
        assert labels.tolist() == [4, 9]

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [1, 2, 3])
        with pytest.raises(IdxFormatError, match="does not match"):
            load_idx(img, lab)

    def test_bad_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0])
        raw = bytearray(img.read_bytes())
        raw[3] = 0x99
        img.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        images = np.zeros((4, 3, 3), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0, 1, 2, 3])
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(img, lab)


class TestPermuteDrift:
    def test_identity_schedule(self):
        rows = np.arange(12.0).reshape(3, 4)
        out = permute_drift(rows, ((0, np.arange(4)),))
        np.testing.assert_array_equal(out, rows)

    def test_permutation_then_inverse_restores(self):
        rng = np.random.default_rng(10)
        rows = rng.uniform(size=(5, 8))
        perm = rng.permutation(8)
        inverse = np.argsort(perm)
        once = permute_drift(rows, ((0, perm),))
        back = permute_drift(once, ((0, inverse),))
        np.testing.assert_array_equal(back, rows)

    def test_pixel_sum_invariant(self):
        rng = np.random.default_rng(11)
        rows = rng.uniform(size=(6, 10))
        out = permute_drift(rows, ((0, rng.permutation(10)),))
        np.testing.assert_allclose(out.sum(axis=1), rows.sum(axis=1), rtol=1e-12)

    def test_segments_respected(self):
        rows = np.tile(np.arange(3.0), (4, 1))
        swap = np.array([1, 0, 2])
        out = permute_drift(rows, ((0, np.arange(3)), (2, swap)))
        np.testing.assert_array_equal(out[:2], rows[:2])
        np.testing.assert_array_equal(out[2:], rows[2:][:, swap])

    def test_non_bijective_rejected(self):
        rows = np.zeros((2, 3))
        with pytest.raises(StructureError):
            permute_drift(rows, ((0, np.array([0, 0, 2])),))

    @pytest.mark.parametrize("schedule, shown", [
        ([[0, [0, 1]]], "[[0, [0, 1]]]"), ([[0, [0, 1, 3]]], "[[0, [0, 1, 3]]]"),
        ([[1, [0, 1, 2]]], "[[1, [0, 1, 2]]]"), ([[0, [0, 1, 2]], [0, [2, 1, 0]]],
                                                 "[[0, [0, 1, 2]], [0, [2, 1, 0]]]"),
    ])
    def test_schedule_that_does_not_fit_the_rows(self, schedule, shown):
        """A permutation that is no bijection on the rows' columns, or starts
        that do not rise from 0, are a StructureError in PAIRS' words."""
        with pytest.raises(StructureError, match=rf"^schedule is {re.escape(shown)}, expected "
                                                 rf"{re.escape(PAIRS.of)} of 0\.\.2$"):
            permute_drift(np.zeros((2, 3)), schedule)


class TestConfidenceRule:
    def test_even_split_is_uncertain(self):
        probs = np.array([[0.5, 0.5]])
        assert confidence_scores(probs)[0] == pytest.approx(0.5)
        assert 0.5 < 0.7  # eligible under the default minimum confidence

    def test_dominant_top_probability_not_eligible(self):
        probs = np.array([[0.8, 0.1, 0.1]])
        conf = confidence_scores(probs)[0]
        assert conf == pytest.approx(8 / 9)
        assert not conf < 0.7


class TestBatchify:
    def rows(self, n=100, seed=12):
        rng = np.random.default_rng(seed)
        return rng.uniform(size=(n, 3)), rng.integers(2, size=n)

    def test_full_fraction_all_labeled(self):
        feats, labels = self.rows()
        batches = list(batchify(feats, labels, 10, rng=np.random.default_rng(0)))
        assert len(batches) == 10
        assert all(b.labeled_mask.all() for b in batches)

    def test_concatenation_reproduces_stream(self):
        feats, labels = self.rows(95)
        batches = list(batchify(feats, labels, 10, rng=np.random.default_rng(0)))
        assert len(batches) == 9  # tail of 5 truncated
        got = np.concatenate([b.features for b in batches])
        np.testing.assert_array_equal(got, feats[:90])
        got_labels = np.concatenate([b.labels for b in batches])
        np.testing.assert_array_equal(got_labels, labels[:90])
        assert [b.timestamp for b in batches] == list(range(9))

    def test_random_mode_counts(self):
        feats, labels = self.rows(100)
        batches = list(
            batchify(feats, labels, 20, 0.25, "random", np.random.default_rng(1))
        )
        assert all(int(b.labeled_mask.sum()) == 5 for b in batches)

    def test_random_mode_ceil(self):
        feats, labels = self.rows(30)
        batches = list(
            batchify(feats, labels, 10, 0.33, "random", np.random.default_rng(2))
        )
        assert all(int(b.labeled_mask.sum()) == 4 for b in batches)  # ceil(3.3)

    @pytest.mark.parametrize("argument, value, message", [
        ("batch_size", 2.5, "batch_size is 2.5, expected an integer"),
        ("batch_size", True, "batch_size is true, expected an integer"),
        ("batch_size", 0, "batch_size is 0, expected a positive integer"),
        ("label_fraction", "1", 'label_fraction is "1", expected a number'),
        ("label_fraction", 0.0, "label_fraction is 0.0, expected a number in (0, 1]"),
        ("selection_mode", "all", 'selection_mode is "all", expected one of random, confidence'),
    ])
    def test_argument_refused_when_passed(self, argument, value, message):
        """batchify checks batch_size, label_fraction and selection_mode by
        the kinds of DatasetSpec's fields of those names when it is called,
        before any batch is asked for."""
        feats, labels = self.rows(4)
        with pytest.raises(ConfigError) as info:
            batchify(feats, labels, **{"batch_size": 2, argument: value})
        assert str(info.value) == message

    def test_confidence_mode_reveals_uncertain_rows(self):
        feats, labels = self.rows(8)
        (batch,) = batchify(feats, labels, 8, 1.0, "confidence", np.random.default_rng(3))
        assert batch.labeled_mask is None  # chosen at test time
        # first half certain, second half uncertain
        probs = np.full((8, 2), 0.5)
        probs[:4] = (0.9, 0.1)
        np.testing.assert_array_equal(
            confidence_mask(probs, 1.0, 0.7), [False] * 4 + [True] * 4
        )

    def test_confidence_mode_caps_by_ascending_confidence(self):
        probs = np.array([[0.52, 0.48], [0.6, 0.4], [0.55, 0.45], [0.95, 0.05]])
        # cap is ceil(0.5 * 4) = 2; rows 0 and 2 have the lowest confidence
        np.testing.assert_array_equal(
            confidence_mask(probs, 0.5, 0.7), [True, False, True, False]
        )

    def test_confidence_mode_requires_callback(self):
        # the harness needs a selection rule for batches that arrive unmasked,
        # and refuses before any training
        feats, labels = self.rows(4)
        stream = batchify(feats, labels, 2, 0.5, "confidence", np.random.default_rng(0))
        model = DevdanModel(3, 2, DevdanConfig(seed=0))
        before = state_hash(model)
        with pytest.raises(ConfigError):
            run_prequential(model, stream)
        assert state_hash(model) == before


class TestDatasetSpec:
    def test_materialize_sea_shape(self):
        spec = DatasetSpec(source="sea", total_samples=2500, batch_size=1000)
        feats, labels, n, m = materialize(spec, np.random.default_rng(13))
        assert feats.shape == (2000, 3)  # truncated to whole batches
        assert (n, m) == (3, 2)

    def test_materialize_hyperplane_dims(self):
        spec = DatasetSpec(source="hyperplane", total_samples=1000, batch_size=100)
        feats, labels, n, m = materialize(spec, np.random.default_rng(14))
        assert feats.shape == (1000, 4) and (n, m) == (4, 2)
        assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            DatasetSpec(source="parquet")
        with pytest.raises(ConfigError):
            DatasetSpec(label_fraction=0.0)
        with pytest.raises(ConfigError):
            DatasetSpec(source="csv")
        with pytest.raises(ConfigError, match=r"^total_samples is 500, expected at least "
                                              r"batch_size \(1000\)$"):
            DatasetSpec(total_samples=500, batch_size=1000)
        # every confidence score is at least 0.5, so such a delta reveals no label
        for delta in (0.5, 0.3, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=rf"^delta is {delta}, expected a finite "
                                                  r"number above 0\.5$"):
                DatasetSpec(selection_mode="confidence", delta=delta)
        assert DatasetSpec(selection_mode="confidence", delta=0.51).delta == 0.51

    def test_file_with_no_whole_batch_is_config_error(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,b,label\n0.1,0.2,0\n0.3,0.4,1\n")
        spec = DatasetSpec(source="csv", csv_path=str(path), batch_size=10)
        with pytest.raises(ConfigError, match=r"^the csv source holds 2 rows, fewer than "
                                              r"batch_size \(10\)$"):
            materialize(spec, np.random.default_rng(0))

    @pytest.mark.parametrize("threshold, label", [(25.0, 0), (-5.0, 1)])
    def test_sea_stream_of_one_label_is_config_error(self, threshold, label):
        """A finite threshold above every sum of two features (20) labels
        every row 0, one below every sum labels every row 1: the stream is
        refused where it is made, and every seed of run_single fails alike."""
        spec = DatasetSpec(total_samples=2000, batch_size=500, sea_schedule=[[0, threshold]])
        assert set(gen_sea(2000, spec.sea_schedule, np.random.default_rng(0))[1]) == {label}
        message = r"^the sea source gives all 2000 rows one label, fewer than 2 classes$"
        with pytest.raises(ConfigError, match=message):
            materialize(spec, np.random.default_rng(0))
        for seed in (0, 1):
            with pytest.raises(ConfigError, match=message):
                run_single(spec, DevdanConfig(), seed)

    def test_csv_of_one_label_is_config_error(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,b,label\n" + "".join(f"0.{i},0.5,yes\n" for i in range(4)))
        spec = DatasetSpec(source="csv", csv_path=str(path), batch_size=2)
        with pytest.raises(ConfigError, match=r"^the csv source gives all 4 rows one label, "
                                              r"fewer than 2 classes$"):
            materialize(spec, np.random.default_rng(0))

    def test_materialize_with_permutations(self):
        perm = np.array([2, 0, 1])
        spec = DatasetSpec(
            source="sea", total_samples=600, batch_size=100,
            permutations=((0, np.arange(3)), (300, perm)),
        )
        plain = DatasetSpec(source="sea", total_samples=600, batch_size=100)
        feats_p, *_ = materialize(spec, np.random.default_rng(15))
        feats, *_ = materialize(plain, np.random.default_rng(15))
        np.testing.assert_array_equal(feats_p[:300], feats[:300])
        np.testing.assert_array_equal(feats_p[300:], feats[300:][:, perm])
