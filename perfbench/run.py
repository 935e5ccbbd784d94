#!/usr/bin/env python3
"""sumedit benchmark: seeded workloads driven through the real CLI.

Run from the repository root:

    python3 perfbench/run.py --workload synthetic-pipeline --seed 1 --seconds 20 --trace 0

With --trace 0 the benchmark writes the workload's inputs, runs its
`sumedit` commands as child processes (EDITNET_WORKERS=1) for --seconds,
checks their outputs and prints the end-to-end metrics. With --trace 1 it
runs the commands once untraced, then once more in-process through
`sumedit.cli.main` with a span around each call into a layer (see
tracing.py), and prints the per-layer metrics. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15
STARTUP_REPEATS = 5
ROUGE_SAMPLE = 200
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150
# End-to-end times are rescaled to a machine on which reference_seconds()
# takes this long; see README.md, "Noise and normalization".
REFERENCE_NOMINAL_S = 0.085

_REF_A = [f"t{(i * 7) % 23}" for i in range(90)]
_REF_B = [f"t{(i * 5) % 19}" for i in range(90)]


def reference_seconds() -> float:
    """Time of a fixed pure-Python load shaped like the program's hot paths
    (an LCS table over token lists, bigram counting). It runs no sumedit
    code, so no change to the program moves it; only the machine does."""
    start = time.perf_counter()
    for _ in range(80):
        prev = [0] * (len(_REF_B) + 1)
        for a in _REF_A:
            row = [0]
            for j, b in enumerate(_REF_B, start=1):
                row.append(prev[j - 1] + 1 if a == b else (prev[j] if prev[j] >= row[j - 1] else row[j - 1]))
            prev = row
        Counter(zip(_REF_A, _REF_A[1:])) + Counter(zip(_REF_B, _REF_B[1:]))
    return time.perf_counter() - start


def normalized(fn, *args):
    """Run fn; return (result, wall seconds, wall seconds rescaled to the
    nominal machine speed by reference loads run just before and after)."""
    before = reference_seconds()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    after = reference_seconds()
    return result, elapsed, elapsed * 2 * REFERENCE_NOMINAL_S / (before + after)


def child_env() -> dict[str, str]:
    env = dict(os.environ, EDITNET_WORKERS="1", **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def digest(paths: list[Path], stdouts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    for name in sorted(stdouts):
        h.update(name.encode() + b"\0" + stdouts[name].encode())
    return h.hexdigest()


def run_pass(wl, tally) -> tuple[dict[str, list[tuple[float, float, int]]], dict[str, str]]:
    """One pass of the workload's commands. Returns per command the (wall
    seconds, normalized seconds, items) of each run and the captured stdout."""
    times: dict[str, list[tuple[float, float, int]]] = {}
    stdout: dict[str, str] = {}
    for cmd in wl.commands():
        proc, wall, norm = normalized(run_child, cmd.argv)
        if not tally.check(proc.returncode == 0, f"sumedit {cmd.name} exited {proc.returncode}"):
            print(proc.stderr, file=sys.stderr)
        times.setdefault(cmd.name, []).append((wall, norm, cmd.items))
        stdout[cmd.name] = stdout.get(cmd.name, "") + proc.stdout
    return times, stdout


def measure(wl, seconds: float, tally) -> dict:
    """Untraced run: set up several times, then repeat whole passes while the
    next one is expected to end within `seconds`. Throughputs are medians
    over the runs of a command; setup_s is the median set-up."""
    setup = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(wl.inputs, ignore_errors=True)
        setup.append(normalized(wl.setup)[2])

    # Untimed warm-up: the first command after set-up runs markedly slower.
    run_child(wl.commands()[0].argv)
    samples: dict[str, list[float]] = {}
    pipeline: list[float] = []
    first_digest, stdout = None, {}
    begin = time.perf_counter()
    pass_s: list[float] = []
    while not pass_s or time.perf_counter() - begin + statistics.median(pass_s) <= seconds:
        start = time.perf_counter()
        times, stdout_now = run_pass(wl, tally)
        pass_s.append(time.perf_counter() - start)
        for name, runs in times.items():
            samples.setdefault(name, []).extend(items / norm for _, norm, items in runs)
        pipeline.append(wl.pipeline_items() / sum(norm for runs in times.values() for _, norm, _ in runs))
        now = digest(wl.artifacts(), stdout_now)
        if first_digest is None:
            first_digest, stdout = now, stdout_now
        else:
            tally.check(now == first_digest, f"pass {len(pass_s)} outputs differ from the first pass")
    print(f"{wl.name}: {len(pass_s)} passes in {sum(pass_s):.1f}s", file=sys.stderr)

    quality = wl.check(tally, stdout)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "primary_per_s": (statistics.median(samples[wl.primary]), "1/s"),
        "pipeline_per_s": (statistics.median(pipeline), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "quality_reward": (quality, "reward"),
    }


def startup_seconds(wl) -> float:
    """Child start until sumedit.cli is imported and the config resolved,
    for the workload's first command line (median of a few)."""
    argv = wl.commands()[0].argv
    probe = (
        "import sys, time\n"
        "from sumedit import cli\n"
        "from sumedit.config import ExperimentConfig\n"
        "args = cli.build_parser().parse_args(sys.argv[1:])\n"
        "ExperimentConfig.from_file(args.config)\n"
        "print(time.perf_counter())\n"
    )
    out = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv[3:]], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        out.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(out)


def rouge_l_share(candidates, rng) -> float:
    """rouge_l time / reward time over the same seeded sample of candidates."""
    from sumedit import rouge
    from sumedit.rouge import RewardWeights

    weights = RewardWeights()
    picks = rng.choice(len(candidates), size=min(ROUGE_SAMPLE, len(candidates)), replace=False)
    sample = [candidates[i] for i in picks]
    reward_t, rl_t = [], []
    for _ in range(3):
        start = time.perf_counter()
        for cand, ref in sample:
            rouge.reward(cand, ref, weights)
        reward_t.append(time.perf_counter() - start)
        start = time.perf_counter()
        for cand, ref in sample:
            rouge.rouge_l(cand, ref.sentences)
        rl_t.append(time.perf_counter() - start)
    return statistics.median(rl_t) / statistics.median(reward_t)


def run_in_process(t, wl, tally) -> dict[str, str]:
    """One pass of the workload's commands through `sumedit.cli.main` in
    this process, each under a root span cli.<command>, with the layer
    functions instrumented. Returns the captured stdout per command."""
    from sumedit import cli

    stdout: dict[str, str] = {}
    with t.instrument():
        for cmd in wl.commands():
            out, err = io.StringIO(), io.StringIO()
            with t.span(f"cli.{cmd.name}"), redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(cmd.argv[3:])
                except SystemExit as exc:
                    code = exc.code
            if not tally.check(code == 0, f"traced sumedit {cmd.name} returned {code}"):
                print(err.getvalue(), file=sys.stderr)
            stdout[cmd.name] = stdout.get(cmd.name, "") + out.getvalue()
    return stdout


def traced(wl, seed: int, tally, spans_path: Path) -> dict:
    import numpy as np

    from tracing import Tracer

    setup_t = Tracer()
    shutil.rmtree(wl.inputs, ignore_errors=True)
    wl.setup(setup_t)

    run_child(wl.commands()[0].argv)  # the same untimed warm-up as measure()
    times, stdout = run_pass(wl, tally)
    wl.check(tally, stdout)
    untraced_digest = digest(wl.artifacts(), stdout)
    untraced_s = sum(wall for runs in times.values() for wall, _, _ in runs)
    startup = startup_seconds(wl)

    t = Tracer()
    traced_stdout = run_in_process(t, wl, tally)
    tally.check(
        digest(wl.artifacts(), traced_stdout) == untraced_digest,
        "traced pass outputs differ from the untraced pass",
    )
    traced_s = t.root_time()

    sequences, candidates = wl.scored_candidates()
    rl_share = rouge_l_share(candidates, np.random.default_rng([seed, 9])) if candidates else 0.0

    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_t.records(), "commands": t.records()}, fh)
    self_s = t.self_times()
    covered = t.children_of_roots()
    reward_calls, reward_s = t.calls("rouge.reward"), t.total("rouge.reward")

    def total(*names: str, **match) -> float:
        return sum(t.total(n, **match) for n in names)

    m = {
        "text.load_dataset_s": (total("text.load_dataset"), "s"),
        "text.records_loaded": (t.counts["text.load_dataset"], "count"),
        "text.write_dataset_s": (setup_t.total("text.write_dataset"), "s"),
        "rouge.reward_calls": (reward_calls, "count"),
        "rouge.reward_s": (reward_s, "s"),
        "rouge.reward_us_per_call": (reward_s / reward_calls * 1e6 if reward_calls else 0.0, "us"),
        "rouge.rouge_l_share": (rl_share, "ratio"),
        "summarizers.extract_s": (total("summarizers.extract"), "s"),
        "summarizers.abstract_s": (total("summarizers.abstractions_for"), "s"),
        "encoder.context_s": (total("encoder.context_from_abstractions"), "s"),
        "encoder.sentences_encoded": (t.counts["encoder.context_from_abstractions"], "count"),
        **{
            f"oracle.enumerate_s.l{l}": (total("oracle.enumerate_rewards", l=l), "s")
            for l in (4, 5, 6, 7)
        },
        "oracle.sequences": (sequences, "count"),
        "oracle.distinct_summary_ratio": (len(candidates) / sequences if sequences else 0.0, "ratio"),
        "oracle.best_sequence_s": (total("oracle.best_sequence"), "s"),
        "oracle.soft_labels_s": (total("oracle.soft_labels"), "s"),
        "oracle.cache_write_s": (total("oracle.write_label_cache"), "s"),
        "oracle.cache_read_s": (total("oracle.read_label_cache"), "s"),
        "editor.loss_and_gradients_s": (total("editor.loss_and_gradients"), "s"),
        "editor.loss_and_gradients_calls": (t.calls("editor.loss_and_gradients"), "count"),
        "editor.decode_s": (total("editor.decode"), "s"),
        "editor.decode_calls": (t.calls("editor.decode"), "count"),
        "editor.checkpoint_s": (total("editor.save_checkpoint", "editor.load_checkpoint"), "s"),
        "trainer.adam_step_s": (total("trainer.adam_step"), "s"),
        "trainer.adam_steps": (t.calls("trainer.adam_step"), "count"),
        "trainer.val_reward_s": (total("trainer.mean_reward"), "s"),
        "cli.startup_s": (startup, "s"),
        **{
            f"{layer}.self_s": (self_s.get(layer, 0.0), "s")
            for layer in ("cli", "text", "rouge", "summarizers", "encoder", "oracle", "editor", "trainer")
        },
        "cli.label_examples_per_s": (_rate(times, "label"), "1/s"),
        "cli.train_example_steps_per_s": (_rate(times, "train"), "1/s"),
        "cli.evaluate_examples_per_s": (_rate(times, "evaluate"), "1/s"),
        "cli.summarize_docs_per_s": (_rate(times, "summarize"), "1/s"),
        "trace.untraced_command_s": (untraced_s, "s"),
        "trace.traced_command_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.uncovered_share": (max(0.0, untraced_s - covered) / untraced_s, "ratio"),
    }
    print(
        f"{wl.name}: traced {traced_s:.2f}s vs untraced commands {untraced_s:.2f}s; "
        f"layer spans cover {covered:.2f}s; spans -> {spans_path}",
        file=sys.stderr,
    )
    return m


def _rate(times, name: str) -> float:
    runs = times.get(name)
    return sum(i for _, _, i in runs) / sum(wall for wall, _, _ in runs) if runs else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sumedit" / "cli.py").is_file():
        print(f"error: no sumedit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD, EDITNET_WORKERS="1")
    # One CPU for the benchmark and every command it starts: the commands run
    # serially, and CPUs of a shared machine can differ in momentary speed
    # (README.md, "Noise and normalization").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from checks import Tally
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](args.seed, args.tiny, work)
    tally = Tally()
    try:
        if args.trace:
            metrics = traced(wl, args.seed, tally, WORK / f"spans-{args.workload}-s{args.seed}.json")
        else:
            metrics = measure(wl, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in tally.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
