"""Loader of the compiled training loop (`_step.c`).

The C file is built once into a per-user cache (`cache_dir()`:
$XDG_CACHE_HOME/devdan when that is absolute, else ~/.cache/devdan) under a
name keyed by its source and the numerics stack, and loaded with ctypes at
the first training step; a load refreshes the build's mtime, and a new build
evicts the oldest (`evict`, as the CSV parse cache does). It reproduces the
numpy step bit for bit by calling numpy's own float64 exp, logaddexp, add and
log loops, read here from the ufunc loop tables, the dgemv/ddot of the
OpenBLAS that numpy bundles, and the model generator's own bitgen_t for the
mask draw. A load-time self-check compares every product orientation, both
squashes, a mask-draw sequence and a control-chart sequence with numpy and
Python; if the build, the load or the check fails, every model keeps the
numpy step, and `step_backend()` says why.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import sys
import time
from pathlib import Path

import numpy as np

from .dae import MaskSpec, mask_input
from .monitors import CHART_FIELDS, SpcTracker, kappa, should_grow, should_prune
from .numerics import sigmoid, softmax_row

SOURCE = Path(__file__).with_name("_step.c")
COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# cache_dir() keeps the newest ENTRIES files of each kind (builds, parsed CSV
# files) within MAX_BYTES in all (`evict`)
ENTRIES = 16
MAX_BYTES = 1 << 30
STALE_TMP_S = 3600  # a temporary file this old was left by a killed writer

_NPY_DOUBLE = 12  # numpy's type number for float64 in the ufunc type tables

_c_double_p = ctypes.POINTER(ctypes.c_double)
_state = None  # (library or None, backend description) after the one attempt


class _UFunc(ctypes.Structure):
    """The leading fields of numpy's PyUFuncObject (numpy/ufuncobject.h)."""

    _fields_ = [
        ("ob_refcnt", ctypes.c_ssize_t),
        ("ob_type", ctypes.c_void_p),
        ("nin", ctypes.c_int),
        ("nout", ctypes.c_int),
        ("nargs", ctypes.c_int),
        ("identity", ctypes.c_int),
        ("functions", ctypes.POINTER(ctypes.c_void_p)),
        ("data", ctypes.POINTER(ctypes.c_void_p)),
        ("ntypes", ctypes.c_int),
        ("reserved1", ctypes.c_int),
        ("name", ctypes.c_char_p),
        ("types", ctypes.POINTER(ctypes.c_char)),
    ]


_UFUNCS = (np.exp, np.logaddexp, np.add, np.log)


class _Numerics(ctypes.Structure):
    _fields_ = [(name, ctypes.c_void_p) for name in (
        *(u.__name__ for u in _UFUNCS), *(u.__name__ + "_data" for u in _UFUNCS), "gemv", "dot")]


class _Model(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64),
        ("width", ctypes.c_int64),
        ("m", ctypes.c_int64),
        *((name, ctypes.c_void_p) for name in (
            "params", "vel", "grads", "gen_count", "disc_count",
            "gen_mean", "gen_m2", "disc_mean", "disc_m2", "charts", "work")),
    ]


class Rows(ctypes.Structure):
    """struct rows in _step.c: one phase's run of rows."""

    _fields_ = [
        ("feats", ctypes.c_void_p),
        ("index", ctypes.c_void_p),
        ("labels", ctypes.c_void_p),
        ("count", ctypes.c_int64),
        ("pos", ctypes.c_int64),
        ("resume", ctypes.c_int64),
        ("losses", ctypes.c_void_p),
        ("bitgen", ctypes.c_void_p),
        ("perm", ctypes.c_void_p),
        ("n_masked", ctypes.c_int64),
        ("enable_grow", ctypes.c_int64),
        ("enable_prune", ctypes.c_int64),
        ("lr", ctypes.c_double),
        ("momentum", ctypes.c_double),
    ]


GROW, PRUNE, RAISES = 1, 2, 4
# where a resumed row starts, and why devdan_train_rows returned
FRESH, UPDATE, REFRESH = 0, 1, 2
DONE, CHART, GEN_LOSS, GRAD_W, GRAD_B, GRAD_C, DISC_LOSS = range(7)


class KernelUnavailable(Exception):
    """Why the compiled step cannot run here."""


def _float64_loop(ufunc) -> tuple[int, int]:
    """(function, data) of the first all-float64 inner loop in ufunc's table,
    the one numpy picks for float64 operands."""
    u = _UFunc.from_address(id(ufunc))
    if u.name != ufunc.__name__.encode() or u.ntypes != len(ufunc.types):
        raise KernelUnavailable(f"unexpected ufunc object layout for {ufunc.__name__}")
    sig = "d" * ufunc.nin + "->" + "d" * ufunc.nout
    i = ufunc.types.index(sig)
    codes = [ord(u.types[i * u.nargs + k]) for k in range(u.nargs)]
    if codes != [_NPY_DOUBLE] * u.nargs:
        raise KernelUnavailable(f"unexpected type table for {ufunc.__name__}")
    return u.functions[i], u.data[i] or 0


def _blas():
    """ctypes handle of the OpenBLAS that numpy bundles."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if config.get("name") != "scipy-openblas":
        raise KernelUnavailable(f"numpy uses {config.get('name')!r}, not its bundled OpenBLAS")
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas*.so*"))
    if len(found) != 1:
        raise KernelUnavailable(f"expected one bundled OpenBLAS in {libs}, found {len(found)}")
    return ctypes.CDLL(str(found[0]))


def cache_dir() -> Path:
    """The per-user cache of the kernel build and of parsed CSV files. A
    relative $XDG_CACHE_HOME is ignored, as the XDG spec asks."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = str(Path.home() / ".cache")
    return Path(base) / "devdan"


def _library_path() -> Path:
    import platform

    key = hashlib.sha256(SOURCE.read_bytes())
    for part in (" ".join(FLAGS), sys.implementation.cache_tag, platform.machine(),
                 np.__version__):
        key.update(b"\0" + part.encode())
    return cache_dir() / f"step-{key.hexdigest()[:16]}.so"


def evict(keep: Path, pattern: str, entries: int, max_bytes: int) -> None:
    """Removes all but the newest `entries` files matching pattern in keep's
    directory, by mtime, and then the oldest until the rest fit in max_bytes;
    keep, the file just written, stays. Also removes the temporary files of
    that kind (".<pattern up to its *>*.tmp") that killed writers left."""
    dated = []
    for other in keep.parent.glob(pattern):
        with contextlib.suppress(OSError):  # another process may evict it first
            st = other.stat()
            dated.append((other != keep, -st.st_mtime_ns, st.st_size, other))
    dated.sort()
    total = 0
    for rank, (_, _, size, other) in enumerate(dated):
        total += size
        if rank >= entries or total > max_bytes:
            with contextlib.suppress(OSError):
                other.unlink()
    for tmp in keep.parent.glob("." + pattern.partition("*")[0] + "*.tmp"):
        with contextlib.suppress(OSError):
            if tmp.stat().st_mtime < time.time() - STALE_TMP_S:
                tmp.unlink()


def _build(target: Path) -> None:
    """Compile into a temporary file beside target, then move it into place,
    so a concurrent build or load sees either no file or a whole one, and
    evict older builds."""
    import subprocess  # imported here: a process that never trains never builds
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.stem}.", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([COMPILER, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, text=True, timeout=300, check=False)
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise KernelUnavailable(f"build failed: {first}")
        os.replace(tmp, target)
        evict(target, "step-*.so", ENTRIES, MAX_BYTES)
    except OSError as err:
        raise KernelUnavailable(f"build failed: {err}") from err
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _declare(lib) -> None:
    v, p, i64, d = ctypes.c_void_p, _c_double_p, ctypes.c_int64, ctypes.c_double
    signatures = {
        "devdan_set_numerics": ([v], None),
        "devdan_sum": ([p, i64, p], None),
        "devdan_sigmoid": ([p, i64], None),
        "devdan_softmax": ([p, i64, i64], None),
        "devdan_vecmat": ([p, p, i64, i64, i64, i64, p], None),
        "devdan_matvec": ([p, p, i64, i64, p], None),
        "devdan_mask": ([v, p, p, i64, i64, v], None),
        "devdan_charts": ([p, d, d, i64, i64, i64, p], ctypes.c_int),
        "devdan_train_rows": ([v, v], ctypes.c_int),
    }
    for name, (args, res) in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = args, res


def _ptr(arr: np.ndarray):
    if arr.dtype != np.float64 or not (arr.flags.c_contiguous or arr.flags.f_contiguous):
        raise ValueError("the kernel takes contiguous float64 arrays")
    return arr.ctypes.data_as(_c_double_p)


def vecmat(lib, v: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """v @ mat through the kernel, for mat in C order or the transpose of a
    C-order array."""
    k, length = mat.shape
    rs, cs = (s // 8 for s in mat.strides)
    out = np.empty(length)
    lib.devdan_vecmat(_ptr(v), _ptr(mat), k, length, rs, cs, _ptr(out))
    return out


def matvec(lib, mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """mat @ v through the kernel, for mat in C order."""
    out = np.empty(mat.shape[0])
    lib.devdan_matvec(_ptr(mat), _ptr(v), mat.shape[0], mat.shape[1], _ptr(out))
    return out


def squash(lib, kind: str, v: np.ndarray) -> np.ndarray:
    """sigmoid or softmax_row (row by row for 2-D v) through the kernel."""
    out = np.array(v, dtype=np.float64, order="C")
    if kind == "sigmoid":
        lib.devdan_sigmoid(_ptr(out), out.size)
    else:
        rows, cols = (1, out.size) if out.ndim == 1 else out.shape
        lib.devdan_softmax(_ptr(out), rows, cols)
    return out


def reduce_sum(lib, v: np.ndarray) -> float:
    out = np.empty(1)
    lib.devdan_sum(_ptr(v), v.size, _ptr(out))
    return float(out[0])


def bitgen_address(rng) -> int | None:
    """Address of a numpy Generator's bitgen_t, None for any other generator."""
    if type(rng) is not np.random.Generator:
        return None
    return rng.bit_generator.ctypes.bit_generator.value


def mask_draw(lib, rng: np.random.Generator, x: np.ndarray, k: int) -> np.ndarray:
    """x with k entries zeroed by the kernel's draw from rng, as
    dae.mask_input draws them."""
    out = np.empty_like(x)
    perm = np.empty(x.size, dtype=np.int64)
    lib.devdan_mask(bitgen_address(rng), _ptr(x), _ptr(out), x.size, k, perm.ctypes.data)
    return out


def charts_step(lib, charts: np.ndarray, bias2: float, variance: float, width: int,
                enable_grow: bool = True, enable_prune: bool = True) -> tuple[int, np.ndarray]:
    """One row of DevdanModel._evolve's chart work, in place on a C-order
    (2, CHART_FIELDS) bias and variance chart pair, without the edits and
    resets. Returns GROW, PRUNE or RAISES, and each test's limit (NaN where
    it did not run)."""
    if charts.shape != (2, CHART_FIELDS) or not charts.flags.c_contiguous:
        raise ValueError("the kernel takes a C-order (2, CHART_FIELDS) chart pair")
    limits = np.empty(2)
    flags = lib.devdan_charts(_ptr(charts), bias2, variance, width, enable_grow, enable_prune,
                              _ptr(limits))
    return flags, limits


def _same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _same_state(a, b) -> bool:
    """Equal bit-generator states: dicts whose values may be arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return _same(a, b) if isinstance(a, np.ndarray) else a == b


def _self_check(lib) -> None:
    """Every product orientation at one and at several outputs, the two
    squashes and the sum against numpy on fixed draws, then the mask draw and
    the control charts."""
    rng = np.random.default_rng(20190101)
    for k, length in ((3, 1), (3, 12), (1, 5), (12, 3), (40, 2)):
        mat = rng.normal(size=(k, length))
        v = rng.normal(size=k)
        if not _same(vecmat(lib, v, mat), v @ mat):
            raise KernelUnavailable(f"self-check: vector @ matrix ({k}, {length})")
        flipped = rng.normal(size=(length, k)).T
        if not _same(vecmat(lib, v, flipped), v @ flipped):
            raise KernelUnavailable(f"self-check: vector @ transposed matrix ({k}, {length})")
        w = rng.normal(size=length)
        if not _same(matvec(lib, mat.T.copy(), v), mat.T.copy() @ v):
            raise KernelUnavailable(f"self-check: matrix @ vector ({length}, {k})")
        if not _same(vecmat(lib, w, mat.T), w @ mat.T):
            raise KernelUnavailable(f"self-check: vector @ transposed matrix ({length}, {k})")
    extremes = [745.0, -745.0, 1e308, -1e308, 0.0, -0.0, 40.0]
    v = np.concatenate([rng.normal(scale=8.0, size=293), extremes])
    if not _same(squash(lib, "sigmoid", v), sigmoid(v)):
        raise KernelUnavailable("self-check: sigmoid")
    for shape in ((3, 2), (3, 10), (1, 300)):
        rows = rng.normal(scale=30.0, size=shape)
        if not _same(squash(lib, "softmax", rows), softmax_row(rows)):
            raise KernelUnavailable(f"self-check: softmax_row {shape}")
    if not _same(reduce_sum(lib, v[:297]), np.add.reduce(v[:297])):
        raise KernelUnavailable("self-check: add.reduce")
    _check_mask_draw(lib)
    _check_charts(lib, rng)


def _check_mask_draw(lib) -> None:
    """A fixed sequence of draws against dae.mask_input on a twin generator,
    at lengths whose Fisher-Yates intervals need one, several and rejected
    draws."""
    for bits in (np.random.PCG64, np.random.MT19937):
        ours, theirs = np.random.Generator(bits(7)), np.random.Generator(bits(7))
        for n, fraction in ((1, 0.5), (3, 0.1), (8, 0.5), (20, 1.0), (784, 0.1)):
            x = np.arange(1.0, n + 1.0)
            spec = MaskSpec(fraction, theirs)
            if not _same(mask_draw(lib, ours, x, spec.n_masked(n)), mask_input(x, spec)):
                raise KernelUnavailable(f"self-check: mask draw ({bits.__name__}, n={n})")
        if not _same_state(ours.bit_generator.state, theirs.bit_generator.state):
            raise KernelUnavailable(f"self-check: mask draw ({bits.__name__}, generator state)")


def _check_charts(lib, rng) -> None:
    """A fixed stream through one chart pair against SpcTracker, should_grow
    and should_prune: every moment, minimum, flag, decision and limit. A
    chart that fires is reset and reloaded, as the model does."""
    bias, var = SpcTracker(), SpcTracker()
    pair = np.stack([bias.row, var.row])
    for t, (b2, v) in enumerate(rng.exponential([0.05, 0.02], size=(200, 2))):
        if t % 50 == 25:  # a drift: both streams jump
            b2, v = 10.0 * b2, 10.0 * v
        flags, limits = charts_step(lib, pair, b2, v, 3)
        bias.update(b2)
        grew = should_grow(bias, b2)
        var.update(v)
        pruned = should_prune(var, v, grew, 3)
        want = (bias.min_mean + kappa(b2) * bias.min_std,
                var.min_mean + 2.0 * kappa(v) * var.min_std if not grew else np.nan)
        if (flags != GROW * grew + PRUNE * pruned
                or not _same(pair, np.stack([bias.row, var.row])) or not _same(limits, want)):
            raise KernelUnavailable(f"self-check: control chart (row {t})")
        if grew:
            bias.reset_min()
        if pruned:
            var.reset_min()
        if flags:
            pair = np.stack([bias.row, var.row])


def _load():
    loops = [_float64_loop(u) for u in _UFUNCS]
    blas = _blas()
    target = _library_path()
    if not target.exists():
        _build(target)
    with contextlib.suppress(OSError):
        os.utime(target)  # in use: the newest build, last to be evicted
    try:
        lib = ctypes.CDLL(str(target))
        _declare(lib)
    except (OSError, AttributeError) as err:
        raise KernelUnavailable(f"load failed: {err}") from err
    fns = [ctypes.cast(getattr(blas, name), ctypes.c_void_p).value
           for name in ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")]
    # copied into the library; ctypes never unloads a library, so the
    # addresses stay valid for the life of the process
    numerics = _Numerics(*(f for f, _ in loops), *(d for _, d in loops), *fns)
    lib.devdan_set_numerics(ctypes.addressof(numerics))
    _self_check(lib)
    return lib


def library():
    """The loaded kernel, or None when the numpy step runs. The first call
    in a process builds (if needed), loads and checks it; later calls return
    that outcome."""
    global _state
    if _state is None:
        try:
            _state = (_load(), "compiled")
        except Exception as err:  # any failure keeps the numpy step
            _state = (None, f"numpy ({err})")
    return _state[0]


def step_backend() -> str:
    """Which training step runs: "compiled" or "numpy (<reason>)"."""
    library()
    return _state[1]


class StepContext:
    """One model's handle on the kernel: pointers into the flat parameter,
    momentum and gradient vectors, the node-statistics arrays and the
    (4, CHART_FIELDS) chart array, plus a work vector whose views carry the
    inputs and the results. Holds raw pointers, so it lives only inside
    FlatState and is rebuilt with it."""

    __slots__ = ("model", "addr", "work", "ey", "gen_output", "scalars", "train_rows")

    def __init__(self, lib, n, width, m, params, vel, grads, gen_stats, disc_stats, charts):
        k = max(n, m)
        self.work = s = np.zeros(2 * n + 2 * width + 3 * k + max(k, width) + 3)
        # the layout that view_of() in _step.c reads
        self.ey = s[2 * n + width:2 * n + 2 * width]
        self.gen_output = s[2 * n + 2 * width:2 * n + 2 * width + n]
        self.scalars = s[-3:]
        self.model = _Model(
            n, width, m,
            *(arr.ctypes.data for arr in (
                params, vel, grads, gen_stats.count, disc_stats.count,
                gen_stats.mean, gen_stats.m2, disc_stats.mean, disc_stats.m2, charts, s)),
        )
        self.addr = ctypes.addressof(self.model)
        self.train_rows = lib.devdan_train_rows
