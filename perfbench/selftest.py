#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size. Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload prints every metric BENCHMARK.json names, with
its unit, in both modes; that a label cache with one flipped `best` is caught
by the synthetic-optimum check and by the brute-force check; that a traced
pass whose outputs differ from the untraced pass fails the run; and that the
benchmark fails without printing a result when the sources are missing.
Exits 0 when everything holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, LongExtractLabel, SyntheticPipeline  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_metrics_emitted(spec: dict) -> None:
    for name in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{name} trace {trace}: no JSON result (exit {proc.returncode}) {proc.stderr[-300:]}")
                continue
            expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace {trace}: exit 0 and exactly the four result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace {trace}: all output checks pass")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace {trace}: emits every {section} metric with its unit")


def _label(wl, *splits: str) -> None:
    wl.setup()
    for cmd in wl.commands():
        if cmd.name == "label" and (not splits or cmd.argv[-1] in splits):
            proc = run.run_child(cmd.argv)
            if proc.returncode:
                raise RuntimeError(proc.stderr)


def _flip(path: Path, index: int) -> str:
    """Change record `index`'s best sequence in place; returns its id."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[index + 1])
    rec["best"] = rec["best"][:-1] + ("E" if rec["best"][-1] != "E" else "A")
    lines[index + 1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    return rec["id"]


def test_flipped_best_caught() -> None:
    wl = SyntheticPipeline(3, True, WORK / "synthetic")
    _label(wl)
    cache = wl.out / "labels_train.jsonl"
    clean = checks.Tally()
    checks.check_cache(clean, cache, wl.examples["train"], best=checks.SYNTHETIC_OPTIMUM)
    _flip(cache, 1)
    flipped = checks.Tally()
    checks.check_cache(flipped, cache, wl.examples["train"], best=checks.SYNTHETIC_OPTIMUM)
    expect(clean.failed == 0 and flipped.failed == 1, "check (a) catches one flipped best in a synthetic cache")

    wl = LongExtractLabel(3, True, WORK / "long")
    _label(wl, "train")
    cfg = wl.config()
    cache = wl.out / "labels_train.jsonl"
    example = wl.examples["train"][0]

    def brute(tally: checks.Tally) -> None:
        rec = {r["id"]: r for r in checks.read_cache(cache)}[example.document.id]
        checks.check_brute_force(tally, example, rec, wl.K, cfg.make_abstractor(), cfg.reward_weights())

    clean = checks.Tally()
    brute(clean)
    _flip(cache, 0)
    flipped = checks.Tally()
    brute(flipped)
    expect(clean.failed == 0 and flipped.failed >= 1, "check (b) catches one flipped best in a long-extract cache")


def test_traced_difference_caught() -> None:
    """The traced pass runs the layer functions it finds in the modules; one
    that returns something else here than in the untraced child process must
    make the traced run fail."""
    from sumedit import oracle

    wl = LongExtractLabel(3, True, WORK / "traced")
    real = oracle.soft_labels
    oracle.soft_labels = lambda rewards, best: real(rewards, best)[:, ::-1]
    tally = checks.Tally()
    try:
        run.traced(wl, 3, tally, WORK / "spans.json")
    finally:
        oracle.soft_labels = real
    expect(
        "traced pass outputs differ from the untraced pass" in tally.errors and tally.failed >= 1,
        "a traced pass that changes an output fails the run",
    )


def test_fails_without_sources() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "synthetic-pipeline", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "fails without a result when src/ is missing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json names every workload")
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        test_metrics_emitted(spec)
        test_flipped_best_caught()
        test_traced_difference_caught()
        test_fails_without_sources()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
