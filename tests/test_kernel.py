"""The compiled training step against numpy, bit for bit: its products,
squashes and sums against numpy's own operators, whole runs against the numpy
step, and the loader's fallback, self-check and concurrent builds."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import each_backend

from devdan import kernel, step_backend
from devdan.checkpoint import state_hash
from devdan.model import DevdanConfig, DevdanModel
from devdan.numerics import sigmoid, softmax_row
from devdan.streams import gen_hyperplane, gen_sea

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
    assert model._flat_state.kernel is None
    assert step_backend().startswith("numpy (build failed")
    assert kernel.library() is None and len(builds) == 1
    assert state_hash(model) == state_hash(expected)
    assert not list((tmp_path / "devdan").iterdir())  # no temporary file left


def test_failed_self_check_falls_back_to_numpy(monkeypatch, compiled_step):
    monkeypatch.setattr(kernel, "_state", None)
    monkeypatch.setattr(kernel, "sigmoid", lambda v: np.asarray(v) * 0.0)
    assert kernel.library() is None
    assert step_backend() == "numpy (self-check: sigmoid)"


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
