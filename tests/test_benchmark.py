"""The benchmark end to end on tiny inputs: `perfbench/run.py` runs each
workload of BENCHMARK.json traced and prints its result line. It runs in a
temporary copy of the sources it needs, so that it writes nothing under the
checkout."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    """`src/` and `perfbench/`, plus the test module the workloads import."""
    root = tmp_path_factory.mktemp("bench")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    (root / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "synthetic.py", root / "tests")
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run(bench_copy, workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5",
            "--tiny", "--trace", "1"]
    proc = subprocess.run(argv, cwd=bench_copy, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    assert result["metrics"]
