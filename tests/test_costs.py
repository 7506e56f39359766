"""Cost checks that read no clock: counts that are the same on every host and
move exactly when the code paths they count change. Each is pinned at the
value the code gives now; a change that moves one pins its new value. The
kernel counts skip, with the loader's reason, where the compiled step does
not load."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from devdan import kernel
from devdan.model import DevdanConfig, DevdanModel
from devdan.prequential import run_single
from devdan.streams import DatasetSpec, StreamBatch, gen_sea

SRC = Path(kernel.__file__).resolve().parents[1]


def test_self_check_trains_twenty_rows_on_each_step(compiled_step, monkeypatch):
    """The load-time check's rows, on each step: 2 scenarios of 5 generative
    and 5 discriminative rows."""
    rows = {"compiled": 0, "numpy": 0}
    for step, name in (("compiled", "_compiled_rows"), ("numpy", "_numpy_rows")):
        real = getattr(DevdanModel, name)

        def counted(self, *args, real=real, step=step):
            rows[step] += len(args[-3])  # feats, rows, labels: the hold comes first
            return real(self, *args)

        monkeypatch.setattr(DevdanModel, name, counted)
    kernel._self_check(kernel.library())
    assert rows == {"compiled": 20, "numpy": 20}


def test_train_batch_calls_the_loop_once_per_phase_and_edit(compiled_step, monkeypatch):
    """devdan_train_rows, through a counting wrapper that every hold takes
    from the library: 2 calls per batch, plus one per edit."""
    lib, calls = kernel.library(), []
    real = lib.devdan_train_rows
    monkeypatch.setattr(lib, "devdan_train_rows", lambda *args: calls.append(1) or real(*args))
    feats, labels = gen_sea(4000, rng=np.random.default_rng(0))
    model = DevdanModel(3, 2, DevdanConfig(seed=0))
    edits = 0
    for k in range(0, 4000, 500):
        calls.clear()
        report = model.train_batch(StreamBatch(feats[k:k + 500], labels[k:k + 500],
                                               np.ones(500, dtype=bool), k // 500))
        assert len(calls) == 2 + report.grow_events + report.prune_events
        edits += report.grow_events + report.prune_events
    assert edits > 3


def test_sea_20k_builds_twenty_holds(compiled_step, monkeypatch):
    """One hold at the first step and one after each of the 19 edits (15
    grows, 4 prunes) of SEA 20k at seed 0."""
    built, real = [], kernel.KernelState
    monkeypatch.setattr(kernel, "KernelState", lambda *args: built.append(1) or real(*args))
    report, _ = run_single(DatasetSpec(source="sea", total_samples=20_000, batch_size=1000),
                           DevdanConfig(), 0)
    assert sum(b.grow_events + b.prune_events for b in report.batches) == 19
    assert len(built) == 20


def test_import_devdan_loads_ten_of_the_modules():
    """import devdan loads 10 of the package's 13 modules: not the compiled
    step's loader (kernel), the CSV parse cache or the command line."""
    code = ("import sys, devdan; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'devdan'))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = ast.literal_eval(proc.stdout)
    assert len(list((SRC / "devdan").glob("*.py"))) == 13
    assert len(loaded) == 10
    assert not {"devdan.kernel", "devdan.csv_cache", "devdan.cli"} & set(loaded)
