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
mask draw. A load-time self-check (`_self_check`) trains two fixed scenarios
of hand-built models on both steps, row by row through the code training
runs (`parity`), and compares every state array, the charts, the losses,
the edits, the returned status and the generator state byte for byte; if
the build, the load or the check fails, every model keeps the numpy step,
and `step_backend()` says why, naming the scenario, row and slot that
differed.
"""
from __future__ import annotations

import contextlib
import ctypes
import enum
import hashlib
import itertools
import os
import sys
import time
from pathlib import Path

import numpy as np

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
# for (EDITS), which Python makes before the loop resumes
Status = enum.IntEnum("Status", "DONE GROW PRUNE GEN_LOSS GRAD_W GRAD_B GRAD_C DISC_LOSS", start=0)
EDITS = (Status.GROW, Status.PRUNE)


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

    __slots__ = ("struct", "addr", "parts", "lib", "train_rows")

    def __init__(self, model, lib):
        sizes = (model.n_in, model.width, model.n_classes)
        lengths = work_lengths(*sizes)
        starts = list(itertools.accumulate(lengths.values(), initial=0))
        work = np.zeros(starts[-1])
        self.parts = {part: work[a:b] for part, a, b in zip(lengths, starts, starts[1:])}
        base = work.ctypes.data
        self.struct = KernelModel(*sizes, *(arr.ctypes.data for arr in state_arrays(model)),
                                  *(base + a * work.itemsize for a in starts[:-1]))
        self.addr = ctypes.addressof(self.struct)
        self.lib, self.train_rows = lib, lib.devdan_train_rows


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


# ------------------------------------------------------- the load-time check

def twin_maker(n: int, m: int, config, state: dict, bits=np.random.PCG64, seed: int = 0):
    """make() for parity: a model of n inputs and m classes over config and a
    bits(seed) generator, built as load_checkpoint builds one: state[key] is
    the STATE_SLOTS array of that key (zeros where state has none; w gives
    the width), and state["charts"], if given, the chart array."""
    from .model import DevdanModel  # model imports this module at its first step

    sizes = {"n": n, "width": np.shape(state["w"])[1], "m": m}

    def make():
        model = DevdanModel(n, m, config, rng=np.random.Generator(bits(seed)))
        for slot in STATE_SLOTS:
            slot.set(model, np.array(state.get(slot.key, np.zeros(slot.shape(sizes))),
                                     slot.dtype))
        model.charts[:] = state.get(CHART_SLOT.key, model.charts)
        return model

    return make


# what parity compares after each row, by name: every STATE_SLOTS array, the
# chart array, then the outcome of the row (_rows' losses, edits and failure)
RECORD = (*(s.key for s in (*STATE_SLOTS, CHART_SLOT)), "losses", "edits", "status")


def _record(model, outcome) -> tuple:
    losses, grows, prunes, failure = outcome
    return (*(a.tobytes() for a in state_arrays(model)), np.asarray(losses, np.float64).tobytes(),
            (grows, prunes), failure and (failure[0], repr(failure[1])))


def parity(lib, make, rows) -> str | None:
    """Trains two models that make() builds alike, one on each step, through
    rows, each row (x, label, prime) one call of the phase runner: the
    generative phase on x where label is None, else the discriminative one,
    after prime(model) where prime is not None. One model trains through the
    guard with the kernel lib, the other on the numpy step's rows. Returns
    "row <t>: <name>" for the first RECORD entry that differs byte for byte
    after a row, or "rng" for generator states that differ after the last
    row (they cost more to read), else None."""
    ours, theirs = make(), make()
    one = np.zeros(1, np.int64)
    for t, (x, label, prime) in enumerate(rows):
        feats = np.asarray(x, np.float64)[None]
        labels = None if label is None else np.array([label], np.int64)
        if prime is not None:
            prime(ours)
            prime(theirs)
        got = _record(ours, ours._compiled_rows(ours._ready(lib), feats, one, labels))
        want = _record(theirs, theirs._numpy_rows(feats, one, labels))
        if got != want:
            return f"row {t}: " + next(k for k, a, b in zip(RECORD, got, want) if a != b)
    if plain(ours.rng.bit_generator.state) != plain(theirs.rng.bit_generator.state):
        return f"row {t}: rng"
    return None


def primer(row: int, values: tuple):
    """A prime for parity: chart row `row` (in CHARTS order) ends in values."""
    def prime(model):
        model.charts[row, -len(values):] = values
    return prime


# a chart row that rows of level -1 to 1 do not fire for a while (std 1 over
# 1023 rows, minima that the next row re-seeds to its own, kappa > 1), whose
# mean after the next row is that row's level / 1024, to the bit
QUIET = (1023.0, 0.0, 1023.0, np.inf, np.inf, 0.0)
# (min_mean, min_std, reseed): a limit of -1, which the next row crosses
FIRE = (-1.0, 0.0, 0.0)
# chart rows whose moments a row of level 0 leaves as they are (mean 1 and std
# 1 over 2**60 rows), with the grow and the prune limit at exactly mean + std
# by kappa(0) = 2: each fires, and with kappa one ulp higher does not
EDGE_GROW = (2.0**60, 1.0, 2.0**60, 0.0, 1.0, 0.0)
EDGE_PRUNE = (2.0**60, 1.0, 2.0**60, 0.0, 0.5, 0.0)


def _scenarios():
    """(name, make, rows) of the load-time check. "wide": PCG64, n=8, width
    40, m=3, pre-activations of +-800 in the hidden layer, the decoder and the
    head, half the inputs masked; "narrow": MT19937, n=1, width 1, m=2. Each
    trains 5 generative, then 5 discriminative rows of the same inputs from
    QUIET charts, primed at each phase's row 1 to grow and at its row 3 to
    prune: by FIRE, or by the EDGE rows at the wide model's discriminative
    rows of label 0, whose bias2 and variance its saturated head makes 0."""
    from .model import DevdanConfig

    for name, bits, n, width, m in (("wide", np.random.PCG64, 8, 40, 3),
                                    ("narrow", np.random.MT19937, 1, 1, 2)):
        draw = np.random.default_rng(n)
        state = {"w": draw.normal(size=(n, width)), "b": draw.normal(size=width),
                 "c": draw.normal(size=n), "theta": draw.normal(size=(width, m)),
                 "eta": draw.normal(size=m), "charts": np.tile(QUIET, (4, 1))}
        feats, labels = draw.uniform(size=(5, n)), draw.integers(m, size=5)
        primes = [{1: primer(first, FIRE), 3: primer(first + 1, FIRE)} for first in (0, 2)]
        if width > 1:
            for key in "b", "c", "eta":
                state[key][:2] = 800.0, -800.0
            labels[[1, 3]] = 0
            primes[1] = {1: primer(2, EDGE_GROW), 3: primer(3, EDGE_PRUNE)}
        rows = [(x, None, primes[0].get(t)) for t, x in enumerate(feats)]
        rows += [(x, int(label), primes[1].get(t))
                 for t, (x, label) in enumerate(zip(feats, labels))]
        yield name, twin_maker(n, m, DevdanConfig(mask_fraction=0.5), state, bits), rows


def _self_check(lib) -> None:
    """Each of _scenarios on both steps, by parity; a difference fails the
    load with the scenario, row and slot it names."""
    for name, make, rows in _scenarios():
        difference = parity(lib, make, rows)
        if difference is not None:
            raise KernelUnavailable(f"self-check: {name}, {difference}")


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
