"""The compiled training loop against the numpy step, bit for bit: products,
squashes, sums, mask draws and control charts, each reached through the
training loop by twin models on both steps (kernel.parity, which the
load-time self-check runs on its own scenarios), whole runs, and the
loader's fallback, self-check and concurrent builds."""
import ast
import copy
import dataclasses
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import each_backend

from devdan import dae, kernel, model, monitors, step_backend
from devdan.checkpoint import load_checkpoint, save_checkpoint, state_hash
from devdan.errors import ShapeError
from devdan.model import DevdanConfig, DevdanModel
from devdan.monitors import Column, kappa
from devdan.numerics import sigmoid
from devdan.streams import StreamBatch, gen_hyperplane, gen_sea

EXTREMES = np.array([745.0, -745.0, 1e308, -1e308, 709.0, -709.0, 0.0, -0.0])
# no edits: the widths stay those the test builds
STILL = DevdanConfig(enable_grow=False, enable_prune=False)


@pytest.fixture
def lib(compiled_step):
    return kernel.library()


def same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def train(model, feats, labels):
    for x, label in zip(feats, labels):
        model.generative_step(x)
        model.discriminative_step(x, int(label))


def parity(lib, n, m, state, rows, config=STILL, **bits):
    """kernel.parity of twins of n inputs and m classes over config and
    state: None, or the first row and slot at which the two steps differ."""
    return kernel.parity(lib, kernel.twin_maker(n, m, config, state, **bits), rows)


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
    """Every product of the two steps, through one generative and one
    discriminative row: x @ w and du @ w, y @ w.T, h @ theta and theta @
    dlogits, and the snapshots' ey and ey * ey against w.T and theta, at one
    output and at several, signed zeros included (a node whose products are
    all -0.0, and whose bias is -0.0)."""
    rng = np.random.default_rng(100 * n + width)
    for m in (2, 3, 10):
        for draw in range(6):
            state = {"w": rng.normal(size=(n, width)), "b": rng.normal(size=width),
                     "c": rng.normal(size=n), "theta": rng.normal(size=(width, m)),
                     "eta": rng.normal(size=m)}
            x = rng.normal(size=n)
            if draw == 0:
                state["w"][:, 0] = state["theta"][0] = 0.0
                state["b"][0], x = -0.0, -abs(x)
            rows = [(x, None, None), (x, draw % m, None)]
            assert parity(lib, n, m, state, rows) is None, (m, draw)


def test_squashes_and_sums_match_numpy(lib):
    """sigmoid and softmax_row at every length from 1 to 300 (a softmax from
    2 classes), with saturating and overflowing entries: a model of that
    many inputs, nodes and classes and zero weights has the drawn values as
    its hidden, output and head pre-activations (b, c and eta), and sums its
    bias2 and variance over the same lengths."""
    rng = np.random.default_rng(5)
    for length in range(1, 301):
        v = rng.normal(scale=rng.choice([1.0, 8.0, 300.0]), size=length)
        picks = rng.integers(length, size=min(length, 3))
        v[picks] = rng.choice(EXTREMES, size=picks.size)
        m = max(length, 2)
        state = {"w": np.zeros((length, length)), "b": v, "c": v,
                 "theta": np.zeros((length, m)), "eta": np.resize(v, m)}
        x = rng.uniform(size=length)
        rows = [(x, None, None), (x, int(rng.integers(m)), None)]
        assert parity(lib, length, m, state, rows) is None, length


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.MT19937, np.random.Philox,
                                  np.random.SFC64, np.random.PCG64DXSM])
def test_mask_draw_matches_mask_input(lib, bits):
    """The loop masks the entries dae.mask_input masks (which the encoder's
    update reads), on twins over bits(11), at fractions 0 to 1, with uniform
    draws between rows, and leaves the generator in the same state: PCG64
    hands out buffered 32-bit halves, the others draw through their own
    next_uint32."""
    def uniform(twin):
        twin.rng.uniform()

    for n in (1, 2, 3, 8, 784):
        x = np.arange(1.0, n + 1.0)  # no zero of its own: a zero is a masked entry
        state = {"w": np.random.default_rng(n).normal(size=(n, 1))}
        for fraction in (0.0, 0.1, 0.5, 1.0):
            config = dataclasses.replace(STILL, mask_fraction=fraction)
            rows = [(x, None, uniform)] * 4
            found = parity(lib, n, 2, state, rows, config, bits=bits, seed=11)
            assert found is None, (n, fraction, found)


def put(row: int, column: int, value: float):
    """A prime for parity that sets one chart entry."""
    def prime(twin):
        twin.charts[row, column] = value
    return prime


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("enable", [(True, True), (False, True), (True, False), (False, False)])
def test_charts_match_python(lib, monkeypatch, width, enable):
    """The loop's chart steps against monitors.update_charts on both steps,
    with each pair of enable flags: moments, minima, re-seeds and decisions,
    on the charts of a model `width` nodes wide whose stream's concept
    changes every 200 rows (levels that drift, variances below zero), with
    NaN put mid-stream into entries that may hold it (a mean and an m2);
    then on levels of 0 (saturated outputs that match their targets) into
    charts of -0.0 entries."""
    grow, prune = enable
    config = dataclasses.replace(STILL, enable_grow=grow, enable_prune=prune)
    edits = []
    edit = DevdanModel._edit
    monkeypatch.setattr(DevdanModel, "_edit", lambda self, grew, pruned, *rest: (
        edits.append(grew or pruned), edit(self, grew, pruned, *rest)))
    feats, labels = drifting_stream(600, 3, 2, width * 7 + 8)
    rng = np.random.default_rng(width)
    state = {"w": rng.normal(size=(3, width)), "theta": rng.normal(size=(width, 2))}
    primes = {400: put(0, Column.MEAN, np.nan), 450: put(3, Column.M2, np.nan)}
    rows = [row for t, (x, label) in enumerate(zip(feats, labels))
            for row in ((x, None, primes.get(t)), (x, int(label), None))]
    assert parity(lib, 3, 2, state, rows, config) is None
    state.update(c=np.full(3, -800.0), eta=np.array([800.0, -800.0]),
                 charts=np.tile([0.0, -0.0, -0.0, -0.0, -0.0, 1.0], (4, 1)))
    rows = [(np.zeros(3), label, None) for _ in range(25) for label in (None, 0)]
    assert parity(lib, 3, 2, state, rows, config) is None
    assert sum(edits) > 6 or not (grow or prune and width > 1)  # width 1 never prunes


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
    assert model._kernel_state is None
    assert step_backend().startswith("numpy (build failed")
    assert kernel.library() is None and len(builds) == 1
    assert state_hash(model) == state_hash(expected)
    assert not list((tmp_path / "devdan").iterdir())  # no temporary file left


@pytest.mark.parametrize("table, change", [
    ("ROWS", lambda rows: tuple(("position" if name == "pos" else name, decl)
                                for name, decl in rows)),
    ("STATE_SLOTS", lambda slots: tuple(s._replace(dtype=np.float64) if s.dtype == np.int64
                                        else s for s in slots)),
])
def test_a_changed_table_entry_fails_the_build(compiled_step, tmp_path, monkeypatch, table,
                                               change):
    """A header rendered from a changed table does not compile with _step.c:
    a struct rows field that the loop reads, renamed, or the node counts'
    dtype flipped from int64 to float64. The build key changes with the
    tables, so a build made from other tables is never loaded."""
    monkeypatch.setattr(kernel, "cache_dir", lambda: tmp_path)
    path = kernel._library_path()
    monkeypatch.setattr(kernel, table, change(getattr(kernel, table)))
    assert kernel._library_path() != path
    with pytest.raises(kernel.KernelUnavailable, match="^build failed: .*error"):
        kernel._load()
    assert not list(tmp_path.iterdir())


SELF_CHECK = re.compile(r"numpy \(self-check: (wide|narrow), row \d+: ([\w.]+)\)")


def failed_check_names(monkeypatch, *patches) -> str:
    """The slot that a load fails on with (module, name, value) patches made."""
    monkeypatch.setattr(kernel, "_state", None)
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    assert kernel.library() is None
    match = SELF_CHECK.fullmatch(step_backend())
    assert match, step_backend()
    monkeypatch.undo()
    return match[2]


def test_failed_self_check_falls_back_to_numpy(monkeypatch, compiled_step):
    """A numpy step whose sigmoid is one ulp off, in the hidden layer, the
    decoder or the snapshots, fails the check, which names the scenario, row
    and slot."""
    def off(v):
        return np.nextafter(sigmoid(v), 2.0)

    for module in model, dae, monitors:
        assert failed_check_names(monkeypatch, (module, "sigmoid", off)) in kernel.RECORD
    assert step_backend() == "compiled"


def test_self_check_covers_mask_draw_and_charts(monkeypatch, compiled_step):
    """A numpy whose permutation draws otherwise, or a kappa one ulp higher,
    falls back to the numpy step with a reason."""
    def other_draw(x, spec):
        out = x.copy()
        k = spec.n_masked(x.shape[0])
        if k:
            out[spec.rng.choice(x.shape[0], k, replace=False)] = 0.0
        return out

    def higher(level):
        return np.nextafter(kappa(level), 9.0)

    for patch in (dae, "mask_input", other_draw), (monitors, "kappa", higher):
        assert failed_check_names(monkeypatch, patch) in (*kernel.RECORD, "rng")


def test_self_check_scenarios_reach_what_they_claim(lib, monkeypatch):
    """The load-time scenarios: PCG64 and MT19937, n of 1 and 8, widths of 1
    and 40 (so every vecmat branch), pre-activations past +-745 of both
    signs, and a grow and a prune in each phase of each, which the primed
    charts call for."""
    edits = []
    edit = DevdanModel._edit
    monkeypatch.setattr(DevdanModel, "_edit", lambda self, grew, pruned, ey, residual: (
        edits.append((grew, pruned, residual is not None)) if grew or pruned else None,
        edit(self, grew, pruned, ey, residual)))
    seen = []
    for name, make, rows in kernel._scenarios():
        twin = make()
        seen.append((type(twin.rng.bit_generator).__name__, twin.n_in, twin.width))
        pre = np.concatenate([twin.layer.b, twin.layer.c, twin.head.eta])
        assert name == "narrow" or (pre.max() > 745 and pre.min() < -745)
        edits.clear()
        assert kernel.parity(lib, make, rows) is None
        # each edit counted on both twins: a grow and a prune in each phase
        assert sorted(edits) == sorted([(True, False, True), (False, True, True),
                                        (True, False, False), (False, True, False)] * 2)
    assert seen == [("PCG64", 8, 40), ("MT19937", 1, 1)]


SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-g")


def drifting_stream(rows: int, n: int, m: int, seed: int):
    """rows of U[0, 1]^n, each labeled by the largest of x @ W over m
    classes, with W redrawn every 200 rows."""
    rng = np.random.default_rng(seed)
    feats = rng.uniform(size=(rows, n))
    weights = rng.normal(size=(rows // 200 + 1, n, m))
    labels = np.einsum("tn,tnm->tm", feats, weights[np.arange(rows) // 200]).argmax(axis=1)
    return feats, labels


def train_batches(model, feats, labels, labeled, size) -> int:
    """train_batch over feats in batches of size; returns the edits made."""
    edits = 0
    for k in range(0, len(feats), size):
        report = model.train_batch(StreamBatch(feats[k:k + size], labels[k:k + size],
                                               labeled[k:k + size], k // size))
        edits += report.grow_events + report.prune_events
    return edits


def sanitizer_scenario(folder) -> list[tuple[str, int]]:
    """Every way the compiled loop's pointers get rebound: SEA batches whose
    concept flips every 200 rows (edits inside the loop), batches of 20 with
    the charts forged to fire (the loop commits each fire and its re-seed),
    single steps, a checkpoint reload, a deep copy and a rebound chart array,
    then a head bias one class short, which is refused. Then batches with
    edits at both lengths of the output rows: n=40 inputs and m=3 classes,
    and m > n (n=2, m=5). Returns each model's final state hash and the
    number of edits made in its batches."""
    schedule = tuple((k * 200, 4.0 if k % 2 == 0 else 7.0) for k in range(10))
    feats, labels = gen_sea(2000, schedule, np.random.default_rng(61))
    labeled = np.random.default_rng(62).uniform(size=2000) < 0.5
    model = DevdanModel(3, 2, DevdanConfig(seed=61))
    edits = train_batches(model, feats[:1200], labels[:1200], labeled[:1200], 300)
    for k in range(0, 200, 20):  # the bias charts (even batches) or variance charts fire
        model.charts[k // 20 % 2::2, Column.MIN_MEAN:] = (-1.0, 0.0, 0.0)
        edits += train_batches(model, feats[k:k + 20], labels[k:k + 20], labeled[k:k + 20], 20)
    train(model, feats[1200:1400], labels[1200:1400])
    path = Path(folder) / "m.ckpt.json"
    save_checkpoint(model, path)
    model = load_checkpoint(path)
    train(model, feats[1400:1600], labels[1400:1600])
    model = copy.deepcopy(model)
    train(model, feats[1600:1800], labels[1600:1800])
    model.charts = model.charts.copy()
    train(model, feats[1800:], labels[1800:])
    eta, model.head.eta = model.head.eta, model.head.eta[:-1].copy()
    with pytest.raises(ShapeError, match="^eta "):
        model.train_batch(StreamBatch(feats[:300], labels[:300], labeled[:300], 7))
    model.head.eta = eta
    ends = [(state_hash(model), edits)]
    for n, m, seed in ((40, 3, 63), (2, 5, 64)):
        feats, labels = drifting_stream(600, n, m, seed)
        labeled = np.random.default_rng(seed).uniform(size=600) < 0.5
        model = DevdanModel(n, m, DevdanConfig(seed=seed))
        edits = train_batches(model, feats, labels, labeled, 200)
        ends.append((state_hash(model), edits))
    return ends


def test_sanitized_kernel_runs_clean(compiled_step, tmp_path):
    """The kernel built with AddressSanitizer and UBSan, in a fresh cache,
    loads, passes its self-check (whose scenarios train through the
    sanitized loop too) and runs sanitizer_scenario without a report,
    ending on the plain build's hashes."""
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
            f"print(test_kernel.sanitizer_scenario({str(tmp_path)!r}))\n")
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"), "LD_PRELOAD": runtime,
           "ASAN_OPTIONS": "detect_leaks=0"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0 and "Sanitizer" not in proc.stderr, proc.stderr[-3000:]
    assert "runtime error" not in proc.stderr, proc.stderr[-3000:]
    backend, ends = proc.stdout.splitlines()
    assert backend == "compiled", proc.stdout
    (build,) = (tmp_path / "cache" / "devdan").glob("step-*.so")
    assert b"__asan_report" in build.read_bytes()
    ends = ast.literal_eval(ends)
    assert ends == sanitizer_scenario(tmp_path)
    assert ends[0][1] > 5 and all(edits > 0 for _, edits in ends[1:]), ends


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


def test_failure_in_the_numpy_pass_does_not_leak_its_patch(pytester):
    """A test that fails inside each_backend's numpy pass, its generator
    kept alive, leaves the next test the kernel.library it began with."""
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile('''
        from conftest import each_backend
        from devdan import kernel

        REAL, KEPT = kernel.library, []

        def test_fails_in_the_numpy_pass():
            backends = each_backend()
            KEPT.append(backends)
            for backend in backends:
                assert kernel.library() is None
                raise AssertionError(backend)

        def test_runs_after_it():
            assert KEPT and kernel.library is REAL
    ''')
    # no terminal: the inner failure is not printed as one of this run's
    pytester.inline_run("-p", "no:cacheprovider", "-p", "no:terminal").assertoutcome(
        passed=1, failed=1)
