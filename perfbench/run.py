#!/usr/bin/env python3
"""stridelab benchmark: one workload per call, measured in fresh interpreters.

    python3 perfbench/run.py --workload fit_batch --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; stridelab is imported from ./src.
Workloads (closed loops, one client):

  fit_batch  analyze pre-serialized noisy walks in one process
  synth_io   generate -> write_stream / write_truth -> parse_stream
  study_cli  simulate two walk sets before set-up, then per set
             analyze --jobs 2 -> agree -> report, one
             `python -m stridelab.cli` process per command

With --trace 0 the last line holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced pass and the tracing overhead.  The
lines before it name every figure with its unit, the output digest and the
environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = HERE / "bench.py"
WORKLOADS = ("fit_batch", "synth_io", "study_cli")
SETUP_RUNS = 5     # set-up is timed this many times and reported as a median
DEADLINE_S = 170.0
# One BLAS thread per process, so no workload uses more threads than the two
# processes `analyze --jobs 2` runs.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Children:
    """Child processes, each in its own session so it can be stopped whole."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = child_env()
        self.started: list[subprocess.Popen] = []

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.started:
            if proc.poll() is None:
                self.stop(proc)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def start(self, args) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH), *map(str, args)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        self.started.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen, what: str) -> None:
        try:
            _, err = proc.communicate(timeout=self.remaining())
        except (subprocess.TimeoutExpired, BenchError):
            raise BenchError(f"{what}: timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"{what}: exit {proc.returncode}\n{err.strip()}")

    def timed_ready(self, args, what: str) -> tuple[subprocess.Popen, float]:
        """Start a child; seconds from launch until it reports set-up done."""
        t0 = time.perf_counter()
        proc = self.start(args)
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        if line.strip() != "ready":
            self.finish(proc, what)
            raise BenchError(f"{what}: ended before set-up was done")
        return proc, seconds

    @staticmethod
    def stop(proc: subprocess.Popen) -> None:
        """Kill the child's whole session (its CLI commands and workers too)."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    common = [workload, "--seed", seed, "--dir", workdir]
    setups = []
    with Children(time.monotonic() + DEADLINE_S) as kids:
        kids.finish(kids.start(["prepare", *common]), "prepare")
        for _ in range(SETUP_RUNS - 1):
            proc, s = kids.timed_ready(["setup", *common], "setup")
            kids.finish(proc, "setup")
            setups.append(s)
        proc, s = kids.timed_ready(
            ["run", *common, "--seconds", seconds, "--trace", int(trace)], "run")
        setups.append(s)
        kids.finish(proc, "run")
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    return setups, result


def per_input(samples) -> dict[str, tuple[float, float]]:
    """Median seconds and frames of each input over its timed runs."""
    runs: dict[str, list] = {}
    for key, seconds, frames in samples:
        runs.setdefault(key, []).append((seconds, frames))
    return {key: (statistics.median(s for s, _ in r), r[0][1]) for key, r in runs.items()}


def end_to_end(setups, result) -> dict[str, float]:
    """The bounded metrics.  Throughput is the median over inputs of each
    input's frames over its median time, so neither a slow-converging walk,
    nor the walk lengths the seed puts at the median, nor the inputs that a
    run's last seconds happen to repeat swing a run."""
    inputs = per_input(result["samples"]).values()
    return {
        "setup_s": statistics.median(setups),
        "frames_per_s": statistics.median(f / s for s, f in inputs),
        "peak_rss_mb": result["peak_rss_mb"],
    }


LAYER_NOTES = {
    "optimizer.optimize_self_s":
        "normal blocks, sparse assembly and damping loop together: private "
        "code inside EnergyProblem.solve, not separable from outside",
    "optimizer.linear_solve_s": "scipy.sparse.linalg.spsolve as the optimizer calls it",
    "optimizer.s_per_iteration": "optimize wall time / accepted iterations",
    "optimizer.step_accept_ratio": "accepted iterations / linear solves",
    "pose_io.mb_per_s": "bytes parsed plus written / parse_stream + write_stream self time",
    "trace.overhead_frac": "traced minus untraced timed work, over untraced",
}


def layer_rows(layer: dict):
    for name, value in layer.items():
        if name == "pose_io.mb_per_s":
            unit = "MB/s"
        elif name.endswith("_s") or name == "optimizer.s_per_iteration":
            unit = "s"
        elif name.endswith(("_ratio", "_frac")):
            unit = "ratio"
        else:
            unit = "count"
        yield name, value, unit


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measure whole passes for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stridelab" / "__init__.py").is_file():
        print(f"error: no stridelab sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # A terminated run still stops its children and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        setups, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), workdir)
        if args.trace:
            (work / "traces").mkdir(exist_ok=True)
            shutil.move(workdir / "spans.json",
                        work / "traces" / f"{args.workload}-seed{args.seed}.json")
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(setups, result)
    passes = result["passes"]
    attempted, failed = result["attempted"], result["failed"]
    digests = list(dict.fromkeys(p["digest"] for p in passes))
    env = {
        "git_sha": git_sha(),
        **result["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for msg in result["failures"]:
        print(f"FAILED {msg}")
    # Within a pass, every repeat of an input is checked against its first run.
    print(f"digest: {' '.join(digests)} ({len(passes)} pass(es), "
          f"{'equal' if len(digests) == 1 else 'NOT equal'})")
    if args.workload == "study_cli":
        print("simulate (before set-up): " + " ".join(
            f"set-{k}={s:.3f}s" for k, s in enumerate(result["simulate_s"])))
    for i, p in enumerate(passes):
        for key, commands in p["studies"]:
            print(f"pass {i} study {key}: "
                  + " ".join(f"{k}={v:.3f}s" for k, v in commands.items()))
    inputs = per_input(result["samples"])
    print("per input, median s (frames/s): " + " ".join(
        f"{key}={sec:.3f}({f / sec:.1f})" for key, (sec, f) in inputs.items()))
    if args.trace:
        print("end-to-end figures below include the walks timed in the traced pass")
    n = f"median over {len(inputs)} walks of n={len(result['samples'])}"
    rows = [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(setups)} fresh interpreters"),
        ("walk_s_p50", statistics.median(s for s, _ in inputs.values()), "s", n),
        ("frames_per_s", e2e["frames_per_s"], "1/s", n),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "largest of the process and its children"),
        ("failed_frac", failed / attempted, "1", f"{failed} of {attempted} attempted"),
    ]
    if args.workload == "study_cli":
        studies = [sum(c.values()) for _, c in passes[0]["studies"]]
        rows.insert(3, ("study_s", statistics.mean(result["simulate_s"])
                        + statistics.median(studies), "s",
                        f"mean simulate + median of {len(studies)} studies"))
    if result["max_rel_err"] is not None:
        rows.append(("max_rel_err_pct", 100.0 * result["max_rel_err"], "%",
                     "worst gait parameter against ground truth"))
    if args.trace:
        rows += [(name, value, unit, LAYER_NOTES.get(name, "" if value else "not reached"))
                 for name, value, unit in layer_rows(result["layer_metrics"])]
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in layer_rows(result["layer_metrics"])}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    for name, value, unit, note in rows:
        print(f"{name:<40} {value:>12.6g} {unit:<6} {note}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
