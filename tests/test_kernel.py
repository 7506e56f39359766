"""The compiled training loop against numpy, bit for bit: its products,
squashes and sums against numpy's own operators, its mask draw against
dae.mask_input, its control charts against SpcTracker and the chart tests,
whole runs against the numpy step, and the loader's fallback, self-check and
concurrent builds."""
import copy
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import each_backend

from devdan import kernel, step_backend
from devdan.checkpoint import load_checkpoint, save_checkpoint, state_hash
from devdan.dae import MaskSpec, mask_input
from devdan.model import DevdanConfig, DevdanModel
from devdan.monitors import SpcTracker, kappa, should_grow, should_prune
from devdan.numerics import sigmoid, softmax_row
from devdan.streams import StreamBatch, gen_hyperplane, gen_sea

EXTREMES = np.array([745.0, -745.0, 1e308, -1e308, 709.0, -709.0, 0.0, -0.0])


@pytest.fixture
def lib(compiled_step):
    return kernel.library()


def same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def train(model, feats, labels):
    for x, label in zip(feats, labels):
        model.generative_step(x)
        model.discriminative_step(x, int(label))


def test_step_backend_names_the_step():
    backend = step_backend()
    assert backend == "compiled" or backend.startswith("numpy (")
    assert (kernel.library() is None) == (backend != "compiled")


def test_kernel_loads_where_it_can_be_built():
    """With a C compiler and numpy's bundled OpenBLAS, falling back to the
    numpy step is a fault, not a platform limit."""
    if shutil.which(kernel.COMPILER) is None:
        pytest.skip(f"no C compiler {kernel.COMPILER!r}")
    try:
        kernel._blas()
    except kernel.KernelUnavailable as err:
        pytest.skip(str(err))
    assert step_backend() == "compiled"


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
@pytest.mark.parametrize("width", [1, 2, 12, 40])
def test_products_match_numpy(lib, n, width):
    """Every product of the two steps: x @ w and du @ w, y @ w.T, h @ theta
    and theta @ dlogits, at one output and at several, signed zeros
    included."""
    rng = np.random.default_rng(100 * n + width)
    for m in (2, 3, 10):
        for draw in range(6):
            w = rng.normal(size=(n, width))
            theta = rng.normal(size=(width, m))
            x, y, d = rng.normal(size=n), rng.normal(size=width), rng.normal(size=m)
            if draw == 0:  # products that are all -0.0
                w[:, 0] = theta[0] = 0.0
                x, y, d = -abs(x), -abs(y), -abs(d)
            assert same(kernel.vecmat(lib, x, w), x @ w)
            assert same(kernel.vecmat(lib, y, w.T), y @ w.T)
            assert same(kernel.vecmat(lib, y, theta), y @ theta)
            assert same(kernel.matvec(lib, theta, d), theta @ d)


def test_squashes_and_sums_match_numpy(lib):
    """sigmoid, softmax_row (one row and three) and np.add.reduce for every
    length from 1 to 300, with saturating and overflowing entries."""
    rng = np.random.default_rng(5)
    for length in range(1, 301):
        v = rng.normal(scale=rng.choice([1.0, 8.0, 300.0]), size=length)
        picks = rng.integers(length, size=min(length, 3))
        v[picks] = rng.choice(EXTREMES, size=picks.size)
        rows = np.stack([v, -v, rng.permutation(v)])
        assert same(kernel.squash(lib, "sigmoid", v), sigmoid(v)), length
        assert same(kernel.squash(lib, "softmax", v), softmax_row(v)), length
        assert same(kernel.squash(lib, "softmax", rows), softmax_row(rows)), length
        assert same(kernel.reduce_sum(lib, v), np.add.reduce(v)), length


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937, np.random.Philox,
                                  np.random.SFC64, np.random.PCG64DXSM])
def test_mask_draw_matches_mask_input(lib, bits):
    """The kernel's draw zeroes the entries dae.mask_input zeroes, on twin
    generators, with uniform draws in between, and leaves the generator in
    the same state: PCG64 hands out buffered 32-bit halves, the others draw
    through their own next_uint32."""
    ours, theirs = np.random.Generator(bits(11)), np.random.Generator(bits(11))
    for n in (1, 2, 3, 8, 784):
        x = np.arange(1.0, n + 1.0)  # no zero of its own: a zero is a masked entry
        for fraction in (0.0, 0.1, 0.5, 1.0):
            spec = MaskSpec(fraction, theirs)
            for _ in range(4):
                got = kernel.mask_draw(lib, ours, x, spec.n_masked(n))
                want = mask_input(x, spec)
                assert np.array_equal(np.flatnonzero(got == 0.0), np.flatnonzero(want == 0.0))
                assert same(got, want)
                assert ours.uniform() == theirs.uniform()
    assert kernel._same_state(ours.bit_generator.state, theirs.bit_generator.state)


def same_limit(a, b) -> bool:
    """Equal bits, or both NaN: which of two NaN operands an addition passes
    on depends on operand order, and a NaN limit decides nothing."""
    return same(a, b) or (np.isnan(a) and np.isnan(b))


def chart_streams(rng):
    """(name, bias2 stream, variance stream): drifting levels with negative
    variances, NaN arriving mid-stream, and streams of signed zeros."""
    rows = 600
    level = np.repeat(rng.exponential(0.05, size=6), rows // 6)
    bias2 = level * rng.exponential(1.0, size=rows)
    variance = rng.normal(0.01, 0.02, size=rows)  # a third of them negative
    with_nan = bias2.copy(), variance.copy()
    with_nan[0][400], with_nan[1][450] = np.nan, np.nan
    zeros = rng.choice([0.0, -0.0], size=(2, 50))
    return (("drift", bias2, variance), ("nan", *with_nan), ("zeros", *zeros))


@pytest.mark.parametrize("reset_mode", ["standard", "reset_all"])
@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("enable", [(True, True), (False, True), (True, False)])
def test_charts_match_python(lib, reset_mode, width, enable):
    """The kernel's chart step against SpcTracker.update, should_grow and
    should_prune on the same streams: equal moments, minima, re-seed flags,
    limits and decisions on every row, resetting a chart that fires as
    DevdanModel._evolve does."""
    rng = np.random.default_rng(width * 7 + len(reset_mode))
    enable_grow, enable_prune = enable
    fired = 0
    for name, bias2, variance in chart_streams(rng):
        bias, var = SpcTracker(), SpcTracker()
        pair = np.stack([bias.row, var.row])
        for t, (b2, v) in enumerate(zip(bias2.tolist(), variance.tolist())):
            flags, limits = kernel.charts_step(lib, pair, b2, v, width, enable_grow, enable_prune)
            bias.update(b2)
            grew = enable_grow and should_grow(bias, b2)
            var.update(v)
            pruned = enable_prune and should_prune(var, v, grew, width)
            assert flags == kernel.GROW * grew + kernel.PRUNE * pruned, (name, t)
            assert same(pair, np.stack([bias.row, var.row])), (name, t)
            if enable_grow:
                limit = bias.min_mean + kappa(b2) * bias.min_std
                assert same_limit(limits[0], limit), (name, t)
            if enable_prune and not grew and width > 1:
                limit = var.min_mean + 2.0 * kappa(max(v, 0.0)) * var.min_std
                assert same_limit(limits[1], limit), (name, t)
            if grew:
                bias.reset_min(reset_mode)
            if pruned:
                var.reset_min(reset_mode)
            if flags:
                fired += 1
                pair = np.stack([bias.row, var.row])
    assert fired > 3 or not (enable_grow or width > 1)  # width 1 never prunes


def test_charts_report_where_python_raises(lib):
    """Where math.sqrt (a negative m2) or math.exp (an overflowing kappa)
    would raise, the kernel says so instead of deciding."""
    bias, var = SpcTracker(), SpcTracker()
    bias.row[:3] = (3, 0.5, -1.0)  # count, mean and a negative m2
    assert kernel.charts_step(lib, np.stack([bias.row, var.row]), 0.1, 0.1, 3)[0] == kernel.RAISES
    with pytest.raises(ValueError):
        bias.update(0.1)
    bias = SpcTracker()
    assert kernel.charts_step(lib, np.stack([bias.row, var.row]), -1000.0, 0.1, 3)[0] == kernel.RAISES
    bias.update(-1000.0)
    with pytest.raises(OverflowError):
        should_grow(bias, -1000.0)
    fresh = np.stack([SpcTracker().row, SpcTracker().row])
    assert kernel.charts_step(lib, fresh, -1000.0, 0.1, 1, enable_grow=False)[0] == 0


def test_discriminative_loss_is_numpys_log(compiled_step):
    """-log(max(p, 1e-300)) through numpy's scalar log, which differs in the
    last bit from libm's (math.log) on a fraction of a percent of arguments:
    a frozen width-1 model whose class probabilities spread over (0, 1)."""
    rng = np.random.default_rng(97)
    feats, labels = rng.uniform(size=(4000, 3)), rng.integers(2, size=4000)
    config = DevdanConfig(seed=97, lr_discriminative=0.0, enable_grow=False, enable_prune=False)
    losses = {}
    for backend in each_backend():
        model = DevdanModel(3, 2, config)
        model.layer.w = np.array([[6.0], [-6.0], [3.0]])
        model.head.theta = np.array([[12.0, -12.0]])
        losses[backend] = np.array([model.discriminative_step(x, int(label)).loss
                                    for x, label in zip(feats, labels)])
    assert same(losses["numpy"], losses["compiled"])
    probs = model.predict_batch(feats)[0][np.arange(4000), labels]
    libm = np.array([-math.log(max(p, 1e-300)) for p in probs.tolist()])
    assert not same(libm, losses["compiled"])


def test_d784_hyperplane_stream_matches_numpy_step(compiled_step):
    """A few hundred rows at the width of the paper's MNIST-type streams."""
    d = 784
    concepts = ((np.ones(d), d / 2), (np.linspace(2.0, 0.0, d), d / 2))
    feats, labels = gen_hyperplane(300, d, concepts, rng=np.random.default_rng(784))
    ends = {}
    for backend in each_backend():
        model = DevdanModel(d, 2, DevdanConfig(seed=784))
        train(model, feats, labels)
        ends[backend] = state_hash(model)
    assert ends["numpy"] == ends["compiled"]


def test_missing_compiler_falls_back_to_numpy(monkeypatch, tmp_path):
    """No compiler: no exception, one build attempt per process, and the
    numpy step ends on the same hash."""
    feats, labels = gen_sea(300, rng=np.random.default_rng(4))
    expected = DevdanModel(3, 2, DevdanConfig(seed=4))
    train(expected, feats, labels)
    builds = []
    real_build = kernel._build

    def counted(target):
        builds.append(target)
        return real_build(target)

    monkeypatch.setattr(kernel, "_state", None)
    monkeypatch.setattr(kernel, "_build", counted)
    monkeypatch.setattr(kernel, "COMPILER", str(tmp_path / "no-such-cc"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    model = DevdanModel(3, 2, DevdanConfig(seed=4))
    train(model, feats, labels)
    assert model._flat_state is None
    assert step_backend().startswith("numpy (build failed")
    assert kernel.library() is None and len(builds) == 1
    assert state_hash(model) == state_hash(expected)
    assert not list((tmp_path / "devdan").iterdir())  # no temporary file left


def test_failed_self_check_falls_back_to_numpy(monkeypatch, compiled_step):
    monkeypatch.setattr(kernel, "_state", None)
    monkeypatch.setattr(kernel, "sigmoid", lambda v: np.asarray(v) * 0.0)
    assert kernel.library() is None
    assert step_backend() == "numpy (self-check: sigmoid)"


def test_self_check_covers_mask_draw_and_charts(monkeypatch, compiled_step):
    """A numpy whose permutation draws otherwise, or an exp whose last bit
    differs from math.exp's, falls back to the numpy step with a reason."""
    def other_draw(x, spec):
        out = x.copy()
        k = spec.n_masked(x.shape[0])
        if k:
            out[spec.rng.choice(x.shape[0], k, replace=False)] = 0.0
        return out

    monkeypatch.setattr(kernel, "_state", None)
    monkeypatch.setattr(kernel, "mask_input", other_draw)
    assert kernel.library() is None
    assert step_backend().startswith("numpy (self-check: mask draw")
    monkeypatch.undo()
    monkeypatch.setattr(kernel, "_state", None)
    monkeypatch.setattr(kernel, "kappa", lambda level: np.nextafter(kappa(level), 9.0))
    assert kernel.library() is None
    assert step_backend().startswith("numpy (self-check: control chart")


SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-g")


def sanitizer_scenario(folder) -> tuple[str, int]:
    """Every way the compiled loop's pointers get rebound: SEA batches whose
    concept flips every 200 rows (edits inside the loop), single steps, a
    checkpoint reload, a deep copy and a rebound chart array. Returns the
    final state hash and the number of edits made in the batches."""
    schedule = tuple((k * 200, 4.0 if k % 2 == 0 else 7.0) for k in range(10))
    feats, labels = gen_sea(2000, schedule, np.random.default_rng(61))
    labeled = np.random.default_rng(62).uniform(size=2000) < 0.5
    model = DevdanModel(3, 2, DevdanConfig(seed=61))
    edits = 0
    for k in range(0, 1200, 300):
        report = model.train_batch(StreamBatch(feats[k:k + 300], labels[k:k + 300],
                                               labeled[k:k + 300], k // 300))
        edits += report.grow_events + report.prune_events
    train(model, feats[1200:1400], labels[1200:1400])
    path = Path(folder) / "m.ckpt.json"
    save_checkpoint(model, path)
    model = load_checkpoint(path)
    train(model, feats[1400:1600], labels[1400:1600])
    model = copy.deepcopy(model)
    train(model, feats[1600:1800], labels[1600:1800])
    model.charts = model.charts.copy()
    train(model, feats[1800:], labels[1800:])
    return state_hash(model), edits


def test_sanitized_kernel_runs_clean(compiled_step, tmp_path):
    """The kernel built with AddressSanitizer and UBSan, in a fresh cache,
    loads, passes its self-check and runs sanitizer_scenario without a
    report, ending on the plain build's hash."""
    try:
        runtime = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True,
                                 text=True, timeout=60, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError) as err:
        pytest.skip(f"no gcc to ask for a sanitizer runtime: {err}")
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("gcc has no AddressSanitizer runtime (libasan.so)")
    tests, src = Path(__file__).resolve().parent, Path(kernel.__file__).resolve().parents[1]
    code = (f"import sys; sys.path[:0] = [{str(tests)!r}, {str(src)!r}]\n"
            f"from devdan import kernel\n"
            f"kernel.FLAGS += {SANITIZE!r}\n"
            f"import test_kernel\n"
            f"print(kernel.step_backend())\n"
            f"print(*test_kernel.sanitizer_scenario({str(tmp_path)!r}))\n")
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"), "LD_PRELOAD": runtime,
           "ASAN_OPTIONS": "detect_leaks=0"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0 and "Sanitizer" not in proc.stderr, proc.stderr[-3000:]
    assert "runtime error" not in proc.stderr, proc.stderr[-3000:]
    backend, digest, edits = proc.stdout.split()
    assert backend == "compiled", proc.stdout
    (build,) = (tmp_path / "cache" / "devdan").glob("step-*.so")
    assert b"__asan_report" in build.read_bytes()
    assert (digest, int(edits)) == sanitizer_scenario(tmp_path)
    assert int(edits) > 5


def test_concurrent_builds_into_one_empty_cache_both_load(compiled_step, tmp_path):
    """Two processes that build at the same moment each load a whole library;
    the cache ends with one file."""
    src = Path(kernel.__file__).resolve().parents[1]
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = "import devdan; print(devdan.step_backend())"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [out.strip() for out, _ in outs] == ["compiled", "compiled"], outs
    files = [p.name for p in (tmp_path / "devdan").iterdir()]
    assert len(files) == 1 and files[0].endswith(".so"), files


def test_builds_are_evicted_and_a_load_refreshes_its_build(compiled_step, tmp_path, monkeypatch):
    """A new build evicts all but the newest kernel.ENTRIES builds by mtime,
    through the routine that evicts parsed CSV files, and a killed build's
    stale temporary file; other kinds of file stay. A load makes its build
    the newest."""
    monkeypatch.setattr(kernel, "cache_dir", lambda: tmp_path)
    old = [tmp_path / f"step-{i:016x}.so" for i in range(kernel.ENTRIES)]
    stale, fresh = tmp_path / ".step-killed.tmp", tmp_path / ".step-building.tmp"
    parsed = tmp_path / f"csv-{0:064x}.npz"
    for i, path in enumerate(old + [stale, parsed, fresh]):
        path.write_bytes(b"")
        if path != fresh:
            os.utime(path, (i + 1, i + 1))
    kernel._load()
    (target,) = set(tmp_path.glob("step-*.so")) - set(old)
    assert sorted(tmp_path.glob("step-*.so")) == sorted(old[1:] + [target])
    assert not stale.exists() and fresh.exists() and parsed.exists()
    os.utime(target, (1, 1))
    kernel._load()
    assert target.stat().st_mtime > kernel.ENTRIES + 3
