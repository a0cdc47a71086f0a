"""Benchmark of the infocontracts solvers, run in one process and one thread.

    python3 perfbench/run.py --workload contract-requests --seed 1 --seconds 25 --trace 0

Builds the workload's operations from the seed and warms up, then runs
whole passes over the operations, at least three, until the time is
spent.  Each operation is timed alone and its time scaled to a reference
machine speed (speed.py); its answer is checked outside the timed interval
on the first pass and must repeat bit for bit on later passes.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

With `--trace 0` the metrics are end to end: set-up time (median of
fresh-interpreter set-ups), throughput and per-operation latency from the
per-operation medians, and peak memory.  With `--trace 1` untraced and
traced passes alternate and the metrics are per layer; spans are written
to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc
import json
import re
import resource
import shutil
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402  (after the thread settings above)

from speed import SpeedProbe  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 4

PER_LAYER = [
    "agent.best_response_shannon.calls", "agent.best_response_shannon.self_s",
    "agent.logit_iterations",
    "agent.best_response_capacity.calls", "agent.best_response_capacity.self_s",
    "agent.best_response_capacity.errors", "agent.capacity_inner_solves",
    "agent.best_response_general.calls", "agent.best_response_general.self_s",
    "agent.best_response_general.errors", "agent.general_iterations",
    "agent.root_calls", "agent.root_nfev",
    "contracts.second_best_solve.calls", "contracts.second_best_solve.self_s",
    "contracts.second_best_solve.errors",
    "contracts.root_calls", "contracts.root_nfev",
    "contracts.solve_for_reservation.calls", "contracts.solve_for_reservation.self_s",
    "contracts.alpha_star.calls", "contracts.alpha_star.self_s",
    "contracts.brute_force_pareto.calls", "contracts.brute_force_pareto.self_s",
    "contracts.first_best_frontier.self_s", "contracts.alpha_prime.self_s",
    "costs.value.calls", "costs.value.self_s",
    "costs.gradient.calls", "costs.gradient.self_s",
    "costs.hessian.calls", "costs.hessian.self_s",
    "costs.upsilon.calls", "costs.upsilon.self_s",
    "geometry.net_utility_curve.self_s", "geometry.concavify.self_s",
    "geometry.emit_figure_data.self_s", "reproduce.run_reproduction.self_s",
    "problem_io.load_problem.self_s", "problem_io.canonical_json.self_s",
    "cli.main.self_s",
]
IMPORT_METRICS = {"numpy": "setup.import_numpy_s", "scipy": "setup.import_scipy_s",
                  "infocontracts": "setup.import_infocontracts_s"}


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, warm up and exit (one set-up sample)")
    return parser.parse_args(argv)


def set_up(workload, seed, work_dir):
    """Import the package, generate the inputs and run the warm-up."""
    import workloads

    sys.path.insert(0, SRC)
    import infocontracts  # noqa: F401  (fails without the package sources)

    os.makedirs(work_dir, exist_ok=True)
    built = workloads.BUILDERS[workload](seed, work_dir)
    built.warmup()
    return built


def setup_samples(args):
    """Set-up times reported by fresh interpreters (`--setup-only`)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(argv, check=True, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def import_times():
    """Cumulative import time of numpy, scipy and the package, from
    `python -X importtime` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import infocontracts"],
                          check=True, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if m and m.group(3).split(".")[0] in IMPORT_METRICS:
            entries.append((len(m.group(2)), m.group(3).split(".")[0], int(m.group(1))))
    # a package's outermost entries hold the time of its nested imports
    totals = {}
    for top, metric in IMPORT_METRICS.items():
        depths = [d for d, t, _ in entries if t == top]
        totals[metric] = sum(us for d, t, us in entries
                             if t == top and d == min(depths)) * 1e-6 if depths else 0.0
    return totals


def _fingerprint(result):
    if isinstance(result, tuple):
        return repr(result)
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if hasattr(result, "experiment"):
        return (result.experiment.conditionals.tobytes(), result.value, result.mu,
                result.iterations)
    return repr(result)


class Runner:
    """Runs whole passes over a workload's operations and keeps the
    per-operation times, outcomes and first-pass verdicts."""

    def __init__(self, ops):
        self.ops = ops
        self.times = [[] for _ in ops]
        self.outcomes = [None] * len(ops)
        self.failed_per_pass = 0
        self.correct = True
        self.passes = 0
        self.pass_seconds = []
        self.speed = []
        self.probe = SpeedProbe()

    def run_pass(self, tracer=None):
        """One pass over the operations; returns its busy time, scaled to
        the reference speed."""
        gc.collect()
        busy = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.current_op = self.passes * len(self.ops) + i
            # no sampling inside traced calls, so that spans hold no probe time
            result, error, seconds, factor = self.probe.call(op.call,
                                                             sample=tracer is None)
            self.speed.append(factor)
            busy += seconds
            self.times[i].append(seconds)
            outcome = (f"error:{type(error).__name__}" if error is not None
                       else _fingerprint(result))
            if self.passes == 0:
                self._judge(op, result if error is None else None, error)
                self.outcomes[i] = outcome
            elif outcome != self.outcomes[i]:
                self.correct = False
                print(f"[{op.name}] answer differs from the first pass", file=sys.stderr)
        self.passes += 1
        self.pass_seconds.append(busy)
        return busy

    def _judge(self, op, result, error):
        if error is not None:
            self.failed_per_pass += 1
            kind = "known fault" if op.fault else "UNEXPECTED failure"
            print(f"[{op.name}] {kind}: {type(error).__name__}: {error}", file=sys.stderr)
            return
        try:
            problems = op.check(result)
        except Exception as exc:  # a check that cannot read the answer rejects it
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if not problems:
            return
        if op.fault:
            self.failed_per_pass += 1
            print(f"[{op.name}] known fault, wrong answer: {problems[0]}", file=sys.stderr)
        else:
            self.correct = False
            print(f"[{op.name}] WRONG ANSWER: {'; '.join(problems)}", file=sys.stderr)

    @property
    def attempted(self):
        return self.passes * len(self.ops)

    @property
    def failed(self):
        return self.passes * self.failed_per_pass

    def medians(self):
        return [statistics.median(t) for t in self.times]


def tail_rank(n):
    """Index (ascending) of the highest order statistic with ten beyond it."""
    return n - 11


def end_to_end(args, built, own_setup):
    setup = setup_samples(args) + [own_setup]
    runner = Runner(built.ops)
    t_start = time.perf_counter()
    while True:
        runner.run_pass()
        elapsed = time.perf_counter() - t_start
        if runner.passes >= MIN_PASSES and elapsed * (1 + 1 / runner.passes) > args.seconds:
            break
    med = sorted(runner.medians())
    batch = sum(med)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(med) / batch, "1/s"),
        "op_p50_s": (statistics.median(med), "s"),
        "op_tail_s": (med[tail_rank(len(med))], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{runner.passes} passes of {len(med)} operations; scaled pass busy times "
          + ", ".join(f"{s:.3f}" for s in runner.pass_seconds)
          + f"; speed factor median {statistics.median(runner.speed):.3f}"
          + f"; tail is the {100 * (tail_rank(len(med)) + 1) / len(med):.1f}th percentile",
          file=sys.stderr)
    return runner, metrics


def traced(args, built):
    """Alternate untraced and traced passes; per-layer numbers come from the
    traced ones, the overhead from the difference of the two medians."""
    from tracing import Tracer

    runner = Runner(built.ops)
    tracer = Tracer()
    untraced, per_pass, counts = [], [], None
    t_start = time.perf_counter()
    while True:
        untraced.append(runner.run_pass())
        tracer.reset()
        tracer.install()
        try:
            busy = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        values = {k: tracer.metric(k) for k in PER_LAYER}
        values["trace.traced_pass_s"] = busy
        fixed = {k: v for k, v in values.items() if not k.endswith("_s")}
        if counts is None:
            counts = fixed
        elif fixed != counts:
            runner.correct = False
            print("trace counters differ between traced passes", file=sys.stderr)
        per_pass.append(values)
        elapsed = time.perf_counter() - t_start
        if elapsed * (1 + 1 / len(per_pass)) > args.seconds:
            break
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.npz"))

    metrics = {k: (v, "count") for k, v in counts.items()}
    for key in PER_LAYER + ["trace.traced_pass_s"]:
        if key.endswith("_s"):
            metrics[key] = (statistics.median(p[key] for p in per_pass), "s")
    metrics["trace.untraced_pass_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = (metrics["trace.traced_pass_s"][0]
                                   - metrics["trace.untraced_pass_s"][0], "s")
    for key, value in import_times().items():
        metrics[key] = (value, "s")
    return runner, metrics


def main(argv=None):
    args = parse_args(argv)
    work_dir = os.path.join(HERE, "tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        # set-up time runs from the first line of this file; the part
        # before the speed probe exists is scaled by the probe's factor
        before_probe = time.perf_counter() - _STARTED
        built, error, seconds, factor = SpeedProbe().call(
            lambda: set_up(args.workload, args.seed, work_dir))
        if isinstance(error, ImportError):
            print(f"cannot import the package from {SRC}: {error}", file=sys.stderr)
            return 2
        if error is not None:
            raise error
        own_setup = before_probe * factor + seconds
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        runner, metrics = (traced(args, built) if args.trace
                           else end_to_end(args, built, own_setup))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:  # another run still uses it, or it was never made
            pass
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
