"""Interface and loader of the compiled training loop (`_step.c`).

Everything the loop and Python share is declared once, here: the enum
Status, the work vector (work_lengths), struct numerics
(NUMERICS), struct rows (ROWS), struct model (model_fields, from the state
table) and the exports (EXPORTS). header() renders them, with the chart
columns (state.Column), as the C declarations that _step.c is compiled
against, and the ctypes structures and argument types come from the same tables.

The header and C file are built once into a per-user cache (`cache_dir()`:
$XDG_CACHE_HOME/devdan when that is absolute, else ~/.cache/devdan) under a
name keyed by both and the numerics stack, and loaded with ctypes at the
first training step; a load refreshes the build's mtime, and a new build
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
import enum
import hashlib
import os
import sys
import time
from pathlib import Path

import numpy as np

from .dae import MaskSpec, mask_input
from .monitors import SpcTracker, kappa, update_charts
from .numerics import sigmoid, softmax_row
from .state import CHART_FIELDS, CHART_SLOT, STATE_SLOTS, Column, plain, state_arrays

SOURCE = Path(__file__).with_name("_step.c")
COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared",
         "-Werror=incompatible-pointer-types")
# cache_dir() keeps the newest ENTRIES files of each kind (builds, parsed CSV
# files) within MAX_BYTES in all (`evict`)
ENTRIES = 16
MAX_BYTES = 1 << 30
STALE_TMP_S = 3600  # a temporary file this old was left by a killed writer

_NPY_DOUBLE = 12  # numpy's type number for float64 in the ufunc type tables

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

# ------------------------------------------------------------ the interface
# Everything _step.c shares with Python is declared once, here and in the
# state table, and header() renders it as the C declarations the file is
# compiled against.

# why devdan_train_rows returned, GROW and PRUNE being the edit a chart called
# for; devdan_charts returns DONE, GROW or PRUNE
Status = enum.IntEnum("Status", "DONE GROW PRUNE GEN_LOSS GRAD_W GRAD_B GRAD_C DISC_LOSS", start=0)


def work_lengths(n: int, width: int, m: int) -> dict[str, int]:
    """The parts of a model's work vector, in order, and their lengths for n
    inputs, width hidden nodes and m classes: the row x and its masked copy
    xt; the hidden activation hid, then the expected activation ey (the
    loop squashes the two in one call); pre, the output row, ez and ez2, each
    k = max(n, m) long; scratch tmp; and grad, the gradients [c | w | b |
    theta | eta]."""
    k = max(n, m)
    return {"x": n, "xt": n, "hid": width, "ey": width, "pre": 3 * k, "tmp": max(k, width),
            "grad": n + n * width + width + width * m + m}


# numpy's float64 ufunc inner loop and the two BLAS entry points
_TYPEDEFS = """\
typedef void (*loop_fn)(char **args, const ptrdiff_t *dims, const ptrdiff_t *steps, void *data);
typedef void (*gemv_fn)(int order, int trans, int64_t m, int64_t n, double alpha,
                        const double *a, int64_t lda, const double *x, int64_t incx,
                        double beta, double *y, int64_t incy);
typedef double (*dot_fn)(int64_t n, const double *x, int64_t incx,
                         const double *y, int64_t incy);
"""
# (field, C type) of struct numerics: the loops and data of _UFUNCS, then BLAS
NUMERICS = (*((u.__name__, "loop_fn") for u in _UFUNCS),
            *((u.__name__ + "_data", "void *") for u in _UFUNCS),
            ("gemv", "gemv_fn"), ("dot", "dot_fn"))
# struct rows, one phase's run of rows. feats is a C-order (rows, n) array;
# index lists the rows to train, in order; labels (per feats row, each in
# [0, m), which the caller checks) is NULL for the generative phase. pos is
# where to start, and on return the row that returned. resume is set when
# that row's chart fired and Python made its edit: the row then goes on to
# its update, recomputing the forward pass against the edited layer first.
ROWS = (("feats", "const double *"), ("index", "const int64_t *"), ("labels", "const int64_t *"),
        ("count", "int64_t"), ("pos", "int64_t"), ("resume", "int64_t"),
        ("losses", "double *"),  # per index entry
        ("bitgen", "void *"),  # the model generator's bitgen_t
        ("perm", "int64_t *"),  # n int64 scratch for the mask draw
        ("n_masked", "int64_t"), ("enable_grow", "int64_t"), ("enable_prune", "int64_t"),
        ("lr", "double"), ("momentum", "double"))
# The exported functions of _step.c: result and parameter C types. ctypes
# passes what these say, and the header's prototypes make the compiler hold
# each definition to them.
EXPORTS = {
    "devdan_set_numerics": ("void", ("const struct numerics *",)),
    "devdan_sum": ("void", ("const double *", "int64_t", "double *")),
    "devdan_sigmoid": ("void", ("double *", "int64_t")),
    "devdan_softmax": ("void", ("double *", "int64_t", "int64_t")),
    "devdan_vecmat": ("void", ("const double *", "const double *", *("int64_t",) * 4,
                               "double *")),
    "devdan_mask": ("void", ("void *", "const double *", "double *", "int64_t", "int64_t",
                             "int64_t *")),
    "devdan_charts": ("int", ("double *", "double", "double", *("int64_t",) * 3, "double *")),
    "devdan_train_rows": ("int", ("const struct model *", "struct rows *")),
}


def model_fields() -> tuple:
    """(field, C type) of struct model: the extents, one pointer per
    STATE_SLOTS array in table order, of its dtype, the chart array, then one
    per part of the work vector. Each array is C order (w is (n, width),
    theta and vel_theta (width, m)); the charts are DevdanModel.charts."""
    return (*((extent, "int64_t") for extent in ("n", "width", "m")),
            *((s.key.replace(".", "_"), {np.float64: "double *", np.int64: "int64_t *"}[s.dtype])
              for s in (*STATE_SLOTS, CHART_SLOT)),
            *((part, "double *") for part in work_lengths(1, 1, 1)))


def _ctype(decl: str):
    """The ctypes type that passes a value of C type decl, c_void_p for any pointer."""
    if decl.endswith(("*", "_fn")):
        return ctypes.c_void_p
    return {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "int": ctypes.c_int,
            "void": None}[decl]


def _structure(name: str, table) -> type:
    """A ctypes structure with the fields of a (field, C type) table."""
    return type(name, (ctypes.Structure,), {"_fields_": [(f, _ctype(c)) for f, c in table]})


def header() -> str:
    """The C declarations _step.c is compiled against, from the tables above,
    the state table and its chart columns: the enums, struct numerics,
    struct model, struct rows and the prototype of every export."""
    enums = (Status.__members__.items(),
             (*Column.__members__.items(), ("CHART_FIELDS", CHART_FIELDS)))
    out = ["/* generated by devdan.kernel.header() */", "#include <stddef.h>",
           "#include <stdint.h>", _TYPEDEFS]
    out += ["enum { " + ", ".join(f"{k} = {int(v)}" for k, v in pairs) + " };" for pairs in enums]
    for name, table in (("numerics", NUMERICS), ("model", model_fields()), ("rows", ROWS)):
        out += [f"struct {name} {{", *(f"    {decl} {field};" for field, decl in table), "};"]
    out += [f"{result} {name}({', '.join(params)});" for name, (result, params) in EXPORTS.items()]
    return "\n".join(out) + "\n"


_Numerics = _structure("_Numerics", NUMERICS)
Rows = _structure("Rows", ROWS)
KernelModel = _structure("KernelModel", model_fields())


class KernelState:
    """The compiled step's hold on a model: a struct model that points at
    the model's own arrays as they are bound when this is built, which the
    loop updates in place, and a work vector whose parts (`parts`, named as
    in work_lengths) carry the inputs and the results.

    Holds raw pointers, so it is derived state: built only where the
    compiled step runs, and never checkpointed, hashed, pickled or copied.
    The model keeps the arrays it points into (DevdanModel._ready).
    """

    __slots__ = ("struct", "addr", "parts", "train_rows")

    def __init__(self, model, lib):
        sizes = (model.n_in, model.width, model.n_classes)
        lengths = work_lengths(*sizes)
        ends = np.cumsum(list(lengths.values()))
        self.parts = dict(zip(lengths, np.split(np.zeros(ends[-1]), ends[:-1])))
        pointers = (arr.ctypes.data for arr in (*state_arrays(model), *self.parts.values()))
        self.struct = KernelModel(*sizes, *pointers)
        self.addr = ctypes.addressof(self.struct)
        self.train_rows = lib.devdan_train_rows


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


def _source() -> str:
    """What the compiler reads: the header, then _step.c, whose lines keep
    their numbers in compiler messages."""
    return header() + f'#line 1 "{SOURCE.name}"\n' + SOURCE.read_text()


def _library_path() -> Path:
    import platform

    key = hashlib.sha256(_source().encode())
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
        proc = subprocess.run([COMPILER, *FLAGS, "-o", tmp, "-x", "c", "-", "-lm"],
                              input=_source(), capture_output=True, text=True, timeout=300,
                              check=False)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no output"]
            first = next((line for line in lines if "error" in line), lines[0])
            raise KernelUnavailable(f"build failed: {first}")
        os.replace(tmp, target)
        evict(target, "step-*.so", ENTRIES, MAX_BYTES)
    except OSError as err:
        raise KernelUnavailable(f"build failed: {err}") from err
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _declare(lib) -> None:
    for name, (result, params) in EXPORTS.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = list(map(_ctype, params)), _ctype(result)


def _ptr(arr: np.ndarray):
    if arr.dtype != np.float64 or not (arr.flags.c_contiguous or arr.flags.f_contiguous):
        raise ValueError("the kernel takes contiguous float64 arrays")
    return arr.ctypes.data


def vecmat(lib, v: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """v @ mat through the kernel, for mat in C order or the transpose of a
    C-order array."""
    k, length = mat.shape
    rs, cs = (s // 8 for s in mat.strides)
    out = np.empty(length)
    lib.devdan_vecmat(_ptr(v), _ptr(mat), k, length, rs, cs, _ptr(out))
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


def bitgen_address(rng: np.random.Generator) -> int:
    """Address of a numpy Generator's bitgen_t."""
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
    """monitors.update_charts through the kernel, in place on a C-order
    (2, CHART_FIELDS) bias and variance chart pair, re-seeds included.
    Returns Status.GROW, PRUNE or DONE, and each test's limit (NaN where it
    did not run)."""
    if charts.shape != (2, CHART_FIELDS) or not charts.flags.c_contiguous:
        raise ValueError("the kernel takes a C-order (2, CHART_FIELDS) chart pair")
    limits = np.empty(2)
    flags = lib.devdan_charts(_ptr(charts), bias2, variance, width, enable_grow, enable_prune,
                              _ptr(limits))
    return flags, limits


def _same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


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
        if not _same(vecmat(lib, v, mat.T.copy().T), mat.T.copy() @ v):
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
    streams = rng.exponential([0.05, 0.02], size=(200, 2))
    streams[25::50] *= 10.0  # drifts: both streams jump
    _check_charts(lib, *streams.T)


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
        if plain(ours.bit_generator.state) != plain(theirs.bit_generator.state):
            raise KernelUnavailable(f"self-check: mask draw ({bits.__name__}, generator state)")


def _check_charts(lib, bias2, variance, width=3, enable_grow=True, enable_prune=True) -> int:
    """Streams of bias2 and variance through one chart pair, in the kernel and
    in monitors.update_charts: every moment, minimum, re-seed flag, decision
    and limit (NaN where its test did not run; NaN limits compare equal,
    since which NaN an addition passes on depends on operand order). Returns
    how many rows fired."""
    bias, var = SpcTracker(), SpcTracker()
    pair = np.stack([bias.row, var.row])
    fired = 0
    for t, (b2, v) in enumerate(zip(bias2, variance)):
        status, limits = charts_step(lib, pair, b2, v, width, enable_grow, enable_prune)
        grew, pruned = update_charts(bias, var, b2, v, width, enable_grow, enable_prune)
        want = (bias.min_mean + kappa(b2) * bias.min_std if enable_grow else np.nan,
                var.min_mean + 2.0 * kappa(max(v, 0.0)) * var.min_std
                if enable_prune and not grew and width > 1 else np.nan)
        if (status != (Status.GROW if grew else Status.PRUNE if pruned else Status.DONE)
                or not _same(pair, np.stack([bias.row, var.row]))
                or not np.array_equal(limits, want, equal_nan=True)):
            raise KernelUnavailable(f"self-check: control chart (row {t})")
        fired += status != Status.DONE
    return fired


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
