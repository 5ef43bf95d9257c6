"""coveralg benchmark: closed-loop passes over a seeded corpus, CLI in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload graphs|weighted|symbolic \\
        --seed N --seconds S --trace 0|1

One client runs the workload's operations one after another; each is a call
of `coveralg.cli.main(argv)` on generated input files, with stdout captured.
A run makes repeated passes over the corpus (each pass in a seeded shuffled
order) and times the reference kernel after every operation. Every output
is checked by `checks.py`; later passes must repeat the first byte for byte.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
it reports the per-layer metrics of a traced run (see README.md). The last
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import checks
import corpus
import tracing
from refkernel import ref_kernel

SETUP_PROBES = 4
# After each operation the reference kernel runs for this share of the
# operation's time (at least one call), so the kernel samples the host's
# speed in proportion to the time the operations spend at it.
REF_SHARE = 0.1
# Share of --seconds given to the untraced passes of a traced run.
TRACE_UNTRACED_SHARE = 0.4


def _out_dir(root: str) -> str:
    return os.path.join(root, "perfbench", "out")


def setup(workload: str, seed: int, directory: str):
    """Import coveralg and generate and write the inputs; returns (cli, ops, seconds)."""
    t0 = perf_counter()
    cli = importlib.import_module("coveralg.cli")
    ops = corpus.build(workload, seed)
    corpus.write_inputs(ops, directory)
    return cli, ops, perf_counter() - t0


def probe_setup(root: str, workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so the import is cold."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


class Runner:
    def __init__(self, cli, ops, seed: int):
        self.cli = cli
        self.ops = ops
        self.rng = random.Random(f"order-{seed}")
        self.first: dict[int, str] = {}  # first good stdout per operation
        self.runs: dict[int, int] = {}  # successful executions per operation
        self.attempted = 0
        self.failed = 0
        self.mismatch: set[int] = set()
        self.errors: list[str] = []
        self.ref_times: list[float] = []
        self.log: list[tuple[str, float, float]] = []  # (operation, seconds, reference seconds)
        self.tracer: tracing.Tracer | None = None
        self.pass_no = 0

    def run_op(self, i: int) -> float:
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        if self.tracer:
            self.tracer.op = (self.pass_no, i)
        gc.collect()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op.argv())
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not an abort
            rc = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{op.name}: exit {rc} {err.getvalue().strip()[:200]}")
        else:
            text = out.getvalue()
            self.runs[i] = self.runs.get(i, 0) + 1
            if i not in self.first:
                self.first[i] = text
            elif text != self.first[i]:
                self.mismatch.add(i)
        block = []
        while not block or sum(block) < REF_SHARE * dt:
            t1 = perf_counter()
            ref_kernel()
            block.append(perf_counter() - t1)
        self.ref_times.extend(block)
        self.log.append((op.name, dt, statistics.fmean(block)))
        return dt

    def passes(self, budget: float, times: dict[int, list[float]], on_pass=None) -> int:
        """Whole passes until another would overrun the budget (at least one)."""
        start = perf_counter()
        count = 0
        while True:
            t0 = perf_counter()
            order = list(range(len(self.ops)))
            self.rng.shuffle(order)
            for i in order:
                times.setdefault(i, []).append(self.run_op(i))
            count += 1
            self.pass_no += 1
            if on_pass:
                on_pass()
            now = perf_counter()
            if now - start + (now - t0) > budget:
                return count

    def verify(self) -> bool:
        """Check each operation's first output independently of the program.

        Returns False when an output is wrong or the checker fails its self-test.
        """
        checker = checks.Checker()
        samples = []
        for i, text in sorted(self.first.items()):
            op = self.ops[i]
            reason = "output changed between passes" if i in self.mismatch else checker.check(op, text)
            if reason:
                self.failed += self.runs[i]
                self.errors.append(f"{op.name}: {reason}")
            else:
                samples.append((op, text))
        wrong = len(samples) < len(self.first)
        reason = checks.self_test(checker, samples)
        if reason:
            self.errors.append(f"checker self-test: {reason}")
            return False
        return not wrong


def corpus_seconds(times: dict[int, list[float]]) -> float:
    """Per operation the median over passes, summed over operations."""
    return sum(statistics.median(v) for v in times.values())


def reference_seconds(samples: list[float]) -> float:
    """Mean reference-kernel call time with the slowest tenth (preemptions) dropped.

    The host switches between a fast and a slow state about 1.8x apart. An
    operation's time averages over both; so does this mean. The median of
    the calls would jump from one state to the other in a run that spends
    about half its time in each.
    """
    kept = sorted(samples)[: max(1, len(samples) * 9 // 10)]
    return statistics.fmean(kept)


def write_times(root: str, args, log) -> None:
    """(operation, seconds, reference seconds) in execution order, for looking into a figure."""
    os.makedirs(_out_dir(root), exist_ok=True)
    path = os.path.join(_out_dir(root), f"times-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(log, fh)


def result_line(correct: bool, runner: Runner, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "coveralg", "cli.py")):
        print(f"error: no coveralg sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = _out_dir(root)
    inputs = os.path.join(out_dir, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")

    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed, inputs)[2])
            return 0
        cli, ops, setup_main = setup(args.workload, args.seed, inputs)
        if not os.path.abspath(cli.__file__).startswith(src + os.sep):
            print(f"error: coveralg imported from {cli.__file__}, not {src}", file=sys.stderr)
            return 2
        runner = Runner(cli, ops, args.seed)
        if args.trace:
            metrics = traced_run(runner, args)
        else:
            times: dict[int, list[float]] = {}
            npass = runner.passes(args.seconds, times)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups = [setup_main] + [
                probe_setup(root, args.workload, args.seed) for _ in range(SETUP_PROBES)
            ]
            corpus_s = corpus_seconds(times)
            ref = reference_seconds(runner.ref_times)
            metrics = {
                "corpus_ref": (corpus_s / ref, "ref"),
                "peak_rss_mb": (rss_mb, "MB"),
                "setup_s": (statistics.median(setups), "s"),
            }
            write_times(root, args, runner.log)
            print(f"# {args.workload} seed {args.seed}: {len(ops)} operations x {npass} passes,"
                  f" reference kernel {ref * 1e3:.3f} ms")
            print(f"# {'corpus_s':32s} {corpus_s:.6g} s (wall time, moves with the host; not in the result)")
        correct = runner.verify()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    for e in runner.errors:
        print(f"# FAIL {e}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:.6g} {unit}")
    print(result_line(correct, runner, metrics))
    return 0


def traced_run(runner: Runner, args) -> dict:
    untraced: dict[int, list[float]] = {}
    runner.passes(args.seconds * TRACE_UNTRACED_SHARE, untraced)
    budget = args.seconds * (1 - TRACE_UNTRACED_SHARE)

    tracer = tracing.Tracer()
    per_pass: list[dict] = []
    traced: dict[int, list[float]] = {}
    tracer.install()
    runner.tracer = tracer
    try:
        runner.passes(budget, traced, on_pass=lambda: per_pass.append(tracer.take_pass()))
    finally:
        runner.tracer = None
        tracer.remove()

    out_dir = _out_dir(os.getcwd())
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(
        os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"),
        {"workload": args.workload, "seed": args.seed, "passes": len(per_pass)},
    )
    if tracer.absent:
        print(f"# absent stages (reported as 0): {', '.join(tracer.absent)}", file=sys.stderr)

    first = per_pass[0]
    if any([p[k] for k in tracing.COUNTS] != [first[k] for k in tracing.COUNTS] for p in per_pass):
        print("# warning: counters differ between traced passes", file=sys.stderr)
    metrics = {}
    for key in tracing.TIMES:
        metrics[key] = (statistics.median(p[key] for p in per_pass), "s")
    for key in tracing.COUNTS:
        if key != "monomial.kept":
            metrics[key] = (first[key], "count")
    cand = first["cone.candidates"]
    formed = first["monomial.intersect_joins"] + first["monomial.multiply_sums"]
    metrics["cone.kept_ratio"] = (first["cone.basis_points"] / cand if cand else 0.0, "ratio")
    metrics["monomial.kept_ratio"] = (first["monomial.kept"] / formed if formed else 0.0, "ratio")
    metrics["trace.untraced_corpus_s"] = (corpus_seconds(untraced), "s")
    metrics["trace.overhead_s"] = (corpus_seconds(traced) - corpus_seconds(untraced), "s")
    print(f"# {args.workload} seed {args.seed}: traced {len(per_pass)} passes; "
          f"untraced corpus {corpus_seconds(untraced):.3f} s, traced {corpus_seconds(traced):.3f} s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
