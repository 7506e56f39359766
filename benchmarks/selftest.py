"""Self-tests of the benchmark: python3 -m pytest benchmarks/selftest.py

The file name keeps these out of the repository's own test collection; each
test runs the benchmark as a subprocess on small streams.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().with_name("run.py")
SPEC = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMALL = {"sea_full": 2000, "hyperplane_csv_half": 2000, "suite_cli": 1000}
# printed with their unit and sample count, but not gated in BENCHMARK.json
PRINTED_ONLY = [{"name": "samples_per_s", "unit": "rows/s"}, {"name": "batch_ms_p50", "unit": "ms"},
                {"name": "test_ms_p50", "unit": "ms"}, {"name": "test_ms_p90", "unit": "ms"}]


def bench(workload, trace, *extra, seed=3):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--rows", str(SMALL[workload]), *extra],
        capture_output=True, text=True, timeout=170, check=False,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_prints_every_metric_with_its_unit(workload, trace):
    proc, result = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    text = proc.stdout.splitlines()[:-1]
    for m in expected + ([] if trace else PRINTED_ONLY):
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line for line in text), m["name"]


def test_wrong_reference_hash_is_a_failed_operation(tmp_path):
    refs = tmp_path / "refs.json"
    wrong = {"state_hash": "0" * 64, "mean_rate": 0.0, "final_width": 0, "grows": 0, "prunes": 0}
    refs.write_text(json.dumps({"runs": {"sea_full": {"rows": SMALL["sea_full"], "outcomes": {"3000": wrong}}}}))
    proc, result = bench("sea_full", 0, "--references", str(refs))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "state_hash" in proc.stdout and "failed 1/" in proc.stdout
