"""Workload bodies of the benchmark.  Each call runs in a fresh interpreter.

    python3 perfbench/bench.py prepare WORKLOAD --seed N --dir DIR
    python3 perfbench/bench.py setup WORKLOAD --seed N --dir DIR
    python3 perfbench/bench.py run WORKLOAD --seed N --dir DIR --seconds S --trace 0|1

`prepare` writes the inputs a workload reads from disk (study_cli: by
running `simulate`).  `setup` does the workload's set-up (imports,
`load_config`, inputs into memory), prints "ready" and exits.  `run` does
the same set-up, prints "ready", measures, checks the outputs and writes
DIR/result.json.  perfbench/run.py drives all three; use that.

A workload is a list of inputs (walks, walk specs, or walk sets for a CLI
study).  A run takes them in turn, one whole pass and then as many more as
are expected to fit in --seconds, and every repeat of an input must give
its first output again.

stridelab is called only through module attributes (`optimizer.optimize`),
so the spans tracing.py installs see every call.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import random
import re
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYERS, Tracer, install, layer_metrics

import numpy as np
import scipy

from stridelab import config, events, optimizer, pose_io, report, skeleton, walker
from stridelab.kinematics import CANONICAL_TREE
from stridelab.skeleton import JointId

HERE = Path(__file__).resolve().parent
PARAMS = ("gait_speed_m_s", "cadence_steps_min", "step_length_cm", "step_time_s")
REPORT_FIELDS = (
    "n_events", "steps_used", "duration_used_s", "gait_speed_m_s",
    "cadence_steps_min", "step_length_cm", "step_time_s", "travel_m",
)
# Recovery tolerances and bone-length limit of tests/test_acceptance.py.
TOL_CLEAN = 0.02
TOL_NOISY = 0.05
MAX_BONE_ERR_M = 1e-6
NOISE = {"sigma3d_m": 0.01, "sigma2d_px": 2.0}
# Eight points spread over the 30-point speed/cadence grid of the acceptance
# sweep (0.8-2.0 m/s, 90-150 steps/min, 6 m at 30 fps: 97-221 frames).
GRID = tuple(round(i * 29 / 7) for i in range(8))
STUDY_WALKS = 12
STUDY_JOBS = 2
# A study_cli pass runs one study on each of this many walk sets, so a run's
# figures average over more than one noise draw per grid point.
STUDY_SETS = 2

_EDGE_CHILD = np.array([c for c, p in enumerate(CANONICAL_TREE.parents) if p >= 0])
_EDGE_PARENT = np.array([p for p in CANONICAL_TREE.parents if p >= 0])


def r10(v: float) -> float:
    """Round as the CLI and pose_io write floats."""
    return float("%.10g" % float(v))


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()[:16]


def grid_spec(index: int, noisy: bool, seed: int) -> walker.WalkerSpec:
    f = index / 29
    return walker.WalkerSpec(
        speed_m_s=0.8 + 1.2 * f,
        cadence_steps_min=90.0 + 60.0 * f,
        distance_m=6.0,
        fps=30.0,
        seed=seed,
        **(NOISE if noisy else {}),
    )


def fit_batch_specs(seed: int) -> list[tuple[str, walker.WalkerSpec]]:
    """Noisy grid walks, a 20%-dropout walk and a 60 fps / 12 m walk."""
    rng = random.Random(seed)
    specs = [(f"grid-{i:02d}", grid_spec(i, True, rng.randrange(2**31))) for i in GRID]
    specs.append(("dropout", walker.WalkerSpec(
        speed_m_s=1.2, cadence_steps_min=110.0, distance_m=6.0, fps=30.0,
        dropout=0.2, seed=rng.randrange(2**31), **NOISE)))
    specs.append(("long", walker.WalkerSpec(
        speed_m_s=1.2, cadence_steps_min=110.0, distance_m=12.0, fps=60.0,
        seed=rng.randrange(2**31), **NOISE)))
    return specs


def synth_io_specs(seed: int) -> list[tuple[str, walker.WalkerSpec]]:
    """Half of the grid, each point clean and noisy."""
    rng = random.Random(seed)
    return [
        (f"{'noisy' if noisy else 'clean'}-{i:02d}",
         grid_spec(i, noisy, rng.randrange(2**31)))
        for i in GRID[::2]
        for noisy in (False, True)
    ]


def study_specs_ini(seed: int) -> str:
    """The walk-spec INI of scripts/run_validation_study.py, 12 noisy walks."""
    base = random.Random(seed).randrange(2**20)
    n = STUDY_WALKS
    lines = []
    for i in range(n):
        f = i / (n - 1)
        lines += [
            f"[walk-{i:02d}]",
            f"speed_m_s = {0.8 + 1.2 * f:.4f}",
            f"cadence_steps_min = {90 + 60 * f:.4f}",
            "distance_m = 6.0",
            f"sigma3d_m = {NOISE['sigma3d_m']}",
            f"sigma2d_px = {NOISE['sigma2d_px']}",
            f"seed = {base + i}",
            "",
        ]
    return "\n".join(lines)


def truth_values(doc: dict) -> dict:
    return {
        "gait_speed_m_s": doc["speed_m_s"],
        "cadence_steps_min": doc["cadence_steps_min"],
        "step_length_cm": 100.0 * doc["step_length_m"],
        "step_time_s": doc["step_time_s"],
    }


def worst_rel_err(video: dict, truth: dict) -> float:
    return max(abs(video[p] - truth[p]) / truth[p] for p in PARAMS)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Outcome:
    """One run of one input."""

    seconds: float      # timed work only, checks excluded
    frames: int
    row: dict           # the output, as the digest sees it
    problems: list
    failed: int         # failed operations: 0 or 1 per walk, per command in a study
    attempted: int = 1
    err: float | None = None  # worst relative error against ground truth
    commands: dict = field(default_factory=dict)  # study_cli: seconds per command
    # [walk id, seconds, frames] per walk timed; by default the input as one walk
    samples: list | None = None


@dataclass
class Pass:
    """The runs of a workload's inputs: one pass, or all of a timed run."""

    seconds: float = 0.0
    frames: int = 0
    samples: list = field(default_factory=list)  # [walk id, seconds, frames]
    rows: dict = field(default_factory=dict)      # first output of each input
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    worst_err: float = 0.0
    studies: list = field(default_factory=list)  # study_cli: [id, commands]

    @property
    def digest(self) -> str:
        return digest(json.dumps([key, row], sort_keys=True).encode()
                      for key, row in sorted(self.rows.items()))


# ---------------------------------------------------------------------------
# fit_batch


def _prepare_one(item):
    walk_id, spec, out = item
    seq, truth = walker.generate(spec)
    (out / f"{walk_id}.poses.json").write_bytes(pose_io.write_stream(seq))
    (out / f"{walk_id}.truth.json").write_bytes(pose_io.write_truth(truth))
    return walk_id


def prepare_fit_batch(seed: int, out: Path) -> None:
    from concurrent.futures import ProcessPoolExecutor
    import multiprocessing

    out.mkdir(parents=True, exist_ok=True)
    items = [(wid, spec, out) for wid, spec in fit_batch_specs(seed)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        list(pool.map(_prepare_one, items))


def analyze_walk(blob: bytes, cfg):
    """The path of cli._analyze_one, with the initialization timed apart."""
    seq = pose_io.parse_stream(blob)
    anatomy = skeleton.derive_anatomy(seq.subject_height_m, cfg.ratios)
    init = optimizer.initial_params(seq, anatomy)
    fitted = optimizer.optimize(seq, anatomy, camera=cfg.camera, cfg=cfg.energy,
                                init=init)
    rep = report.compute_report(events.detect_steps(fitted, cfg.detector))
    return anatomy, fitted, rep


def fit_row(walk_id: str, fitted, rep) -> dict:
    """The result row `analyze` writes for a walk, rounded as it rounds."""
    return {
        "walk_id": walk_id,
        "converged": fitted.converged,
        "iterations": fitted.iterations,
        "report": {
            k: getattr(rep, k) if isinstance(getattr(rep, k), int) else r10(getattr(rep, k))
            for k in REPORT_FIELDS
        },
    }


def fit_problems(anatomy, fitted, rep, truth: dict, tol: float) -> list[str]:
    problems = []
    video = {p: getattr(rep, p) for p in PARAMS}
    err = worst_rel_err(video, truth)
    if not err <= tol:
        problems.append(f"relative error {err:.2%} above {tol:.0%}")
    X = np.array([[fr.joints[j] for j in JointId] for fr in fitted.frames])
    got = np.linalg.norm(X[:, _EDGE_CHILD] - X[:, _EDGE_PARENT], axis=2)
    want = np.array([anatomy.length(JointId(c)) for c in _EDGE_CHILD])
    bone = float(np.abs(got - want).max())
    if not bone < MAX_BONE_ERR_M:
        problems.append(f"bone length error {bone:.2e} m")
    rise = np.diff(fitted.energy_history)
    if rise.size and rise.max() > 0.0:
        problems.append(f"energy rose by {rise.max():.3e}")
    return problems


class _Workload:
    def __init__(self) -> None:
        self.cfg = config.load_config()

    def warm_up(self, p: Pass) -> None:
        """Run the cheapest input once, untimed; it is checked like a repeat."""
        run_item(p, self, self.cheapest(), timed=False)

    def reload_config(self) -> None:
        """Load the config again, so a traced pass records the call."""
        self.cfg = config.load_config()


class FitBatch(_Workload):
    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        self.walks = []
        for walk_id, spec in fit_batch_specs(seed):
            noisy = spec.sigma3d_m > 0 or spec.sigma2d_px > 0 or spec.dropout > 0
            blob = (workdir / f"{walk_id}.poses.json").read_bytes()
            truth = truth_values(pose_io.read_truth(
                (workdir / f"{walk_id}.truth.json").read_bytes()))
            self.walks.append((walk_id, blob, truth, TOL_NOISY if noisy else TOL_CLEAN))

    def run_one(self, walk, checks) -> Outcome:
        walk_id, blob, truth, tol = walk
        t0 = time.perf_counter()
        anatomy, fitted, rep = analyze_walk(blob, self.cfg)
        seconds = time.perf_counter() - t0
        with checks():
            problems = fit_problems(anatomy, fitted, rep, truth, tol)
            err = worst_rel_err({p: getattr(rep, p) for p in PARAMS}, truth)
        return Outcome(seconds, len(fitted.frames), fit_row(walk_id, fitted, rep),
                       problems, int(bool(problems)), err=err)

    def items(self):
        return self.walks

    def cheapest(self):
        return min(self.walks, key=lambda w: len(w[1]))


# ---------------------------------------------------------------------------
# synth_io


def round_trip_problems(seq, blob: bytes, back, truth, tblob: bytes) -> list[str]:
    """`back` is parse_stream(blob)."""
    problems = []
    if pose_io.write_stream(back) != blob:
        problems.append("write_stream(parse_stream(blob)) differs from blob")
    if (back.fps, back.subject_height_m, back.source) != (
            r10(seq.fps), r10(seq.subject_height_m), seq.source):
        problems.append("header changed in the round trip")
    for frames, frames_back in ((seq.frames_3d, back.frames_3d),
                                (seq.frames_2d, back.frames_2d)):
        if len(frames) != len(frames_back):
            problems.append("frame count changed in the round trip")
            continue
        for fr, fb in zip(frames, frames_back):
            want = {j: tuple(map(r10, p)) for j, p in fr.joints.items()}
            got = {j: tuple(p) for j, p in fb.joints.items()}
            if (fr.index, r10(fr.time_s)) != (fb.index, fb.time_s) or want != got:
                problems.append(f"frame {fr.index} changed in the round trip")
                break
    doc = pose_io.read_truth(tblob)
    for key in ("speed_m_s", "cadence_steps_min", "step_length_m", "step_time_s"):
        if doc[key] != r10(getattr(truth, key)):
            problems.append(f"truth {key} changed in the round trip")
    return problems


class SynthIO(_Workload):
    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        self.specs = synth_io_specs(seed)

    def run_one(self, item, checks):
        spec_id, spec = item
        t0 = time.perf_counter()
        seq, truth = walker.generate(spec, camera=self.cfg.camera)
        blob = pose_io.write_stream(seq)
        tblob = pose_io.write_truth(truth)
        back = pose_io.parse_stream(blob)
        seconds = time.perf_counter() - t0
        with checks():
            problems = round_trip_problems(seq, blob, back, truth, tblob)
        row = {"poses": digest([blob]), "truth": digest([tblob])}
        return Outcome(seconds, len(seq.frames_3d), row, problems, int(bool(problems)))

    def items(self):
        return self.specs

    def cheapest(self):
        return min(self.specs, key=lambda s: s[1].distance_m / s[1].speed_m_s)


def run_item(p: Pass, workload, item, checks=nullcontext, timed: bool = True) -> None:
    """Run one input and record it in `p`; an untimed run adds no sample."""
    key = item[0]
    try:
        out = workload.run_one(item, checks)
    except Exception as exc:  # a failing input is counted, never fatal
        p.attempted += 1
        p.failed += 1
        p.failures.append(f"{key}: {type(exc).__name__}: {exc}")
        return
    differs = p.rows.setdefault(key, out.row) != out.row
    p.attempted += out.attempted
    p.failed += out.failed or int(differs)
    p.failures += [f"{key}: {msg}" for msg in out.problems]
    if differs:
        p.failures.append(f"{key}: output differs on a repeat")
    if out.err is not None:
        p.worst_err = max(p.worst_err, out.err)
    if timed:
        p.seconds += out.seconds
        p.frames += out.frames
        p.samples += out.samples if out.samples is not None else [
            [key, out.seconds, out.frames]]
        if out.commands:
            p.studies.append([key, out.commands])


def run_pass(workload, tracer=None) -> Pass:
    """Each input once."""
    checks = tracer.paused if tracer is not None else nullcontext
    p = Pass()
    for item in workload.items():
        run_item(p, workload, item, checks)
    return p


def run_timed(workload, seconds: float) -> Pass:
    """After a warm-up, the inputs in turn: a whole pass, then on for as long
    as the next input is expected to fit in `seconds`."""
    p = Pass()
    workload.warm_up(p)
    items = workload.items()
    took: dict[str, float] = {}
    start = time.perf_counter()
    for n in itertools.count():
        item = items[n % len(items)]
        if n >= len(items) and time.perf_counter() - start + took[item[0]] > seconds:
            return p
        t0 = time.perf_counter()
        run_item(p, workload, item)
        took[item[0]] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# study_cli


def _cli_files(*dirs: Path) -> list[bytes]:
    chunks = []
    for d in dirs:
        for path in sorted(d.iterdir()):
            chunks += [path.name.encode(), path.read_bytes()]
    return chunks


def cli_command(args, via: tuple[str, Path] | None = None):
    """Run one stridelab command in a fresh interpreter, directly or through
    a wrapper script of the benchmark and the file it writes."""
    if via is not None:
        script, out = via
        cmd = [sys.executable, str(HERE / script), str(out), *map(str, args)]
    else:
        cmd = [sys.executable, "-m", "stridelab.cli", *map(str, args)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    return proc, time.perf_counter() - t0


def simulated_frames(stdout: str) -> dict[str, int]:
    """Frames per walk, as `simulate` reports them."""
    return {walk: int(n) for walk, n in re.findall(r"^(\S+): wrote (\d+) frames", stdout, re.M)}


def prepare_study_cli(seed: int, workdir: Path) -> None:
    """Write each walk set's specs and `simulate` it into DIR/set-K/sim,
    two sets at a time."""
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(seed)
    sets = [workdir / f"set-{k}" for k in range(STUDY_SETS)]
    for walk_set in sets:
        walk_set.mkdir()
        (walk_set / "walks.ini").write_text(study_specs_ini(rng.randrange(2**31)),
                                            encoding="utf-8")
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(
            lambda d: cli_command(["simulate", d / "walks.ini", "--out-dir", d / "sim"]),
            sets))
    (workdir / "simulate.json").write_text(json.dumps({
        "seconds": [seconds for _, seconds in runs],
        "frames": [simulated_frames(proc.stdout) for proc, _ in runs],
        "errors": [f"{d.name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
                   for d, (proc, _) in zip(sets, runs) if proc.returncode],
        "peak_rss_mb": peak_rss_mb(),
    }), encoding="utf-8")


class StudyCLI(_Workload):
    """The inputs are walk sets, made by `simulate` before set-up.  A run of
    one is a study: analyze --jobs 2 -> agree -> report, each command its
    own process.  A traced study runs `simulate` again, untimed."""

    def __init__(self, seed: int, workdir: Path) -> None:
        import stridelab.cli  # noqa: F401  (what every command imports)

        super().__init__()
        self.workdir = workdir
        self.simulate = json.loads((workdir / "simulate.json").read_text(encoding="utf-8"))
        self.sets = [(f"set-{k}", workdir / f"set-{k}", frames)
                     for k, frames in enumerate(self.simulate["frames"])]
        self.traced = False
        self.n_studies = 0
        self.agree_repeated = False

    def items(self):
        return self.sets

    def warm_up(self, p: Pass) -> None:
        """Analyze the two shortest walks, untimed.  A whole study would cost
        as much as a timed one; without any, the first study runs slow."""
        poses = sorted((self.sets[0][1] / "sim").glob("*.poses.json"))[-2:]
        proc, _ = cli_command(["--jobs", STUDY_JOBS, "analyze", *poses,
                               "--out-dir", self.workdir / "warm-up"])
        p.attempted += 1
        if proc.returncode != 0:
            p.failed += 1
            p.failures.append(f"warm-up analyze: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")

    def spans(self) -> list:
        return [json.loads(f.read_text(encoding="utf-8"))
                for f in sorted(self.workdir.glob("study-*/spans-*.json"))]

    def run_one(self, item, checks) -> Outcome:
        name, walk_set, frames = item
        study = self.workdir / f"study-{self.n_studies}"
        self.n_studies += 1
        out, rendered = study / "out", study / "rendered"
        study.mkdir()
        commands: dict[str, float] = {}
        failed: dict[str, str] = {}

        def run(tag, args, via=None):
            if self.traced:
                via = ("traced_cli.py", study / f"spans-{tag}.json")
            proc, commands[tag] = cli_command(args, via)
            if proc.returncode != 0:
                failed[tag] = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"

        sim = walk_set / "sim"
        if self.traced:
            sim = study / "sim"
            run("simulate", ["simulate", walk_set / "walks.ini", "--out-dir", sim])
            if "simulate" not in failed and _cli_files(sim) != _cli_files(walk_set / "sim"):
                failed["simulate"] = "output differs from the first simulate"
        times = study / "walk-times.txt"
        run("analyze", ["--jobs", STUDY_JOBS, "analyze", *sorted(sim.glob("*.poses.json")),
                        "--out-dir", out], via=("walk_timer.py", times))
        run("agree", ["agree", out / "results.matched.csv", "--reference", "truth",
                      "--out-dir", out])
        run("report", ["report", out / "agreement.agreement.json",
                       "--out-dir", rendered])
        seconds = sum(t for tag, t in commands.items() if tag != "simulate")
        attempted = len(commands)

        err = None
        samples = []
        if "analyze" not in failed:
            err, problem = analyze_problems(out)
            if problem:
                failed["analyze"] = problem
        # The walks run in the analyze workers; each is timed there.
        if not self.traced and "analyze" not in failed:
            walk_s = dict(line.split() for line in times.read_text(encoding="utf-8").splitlines())
            if walk_s.keys() != frames.keys():
                failed["analyze"] = f"{len(walk_s)} of {len(frames)} walks timed"
            samples = [[f"{name}/{walk}", float(walk_s[walk]), n]
                       for walk, n in frames.items() if walk in walk_s]
        row = {}
        if not failed:
            for path in rendered.iterdir():
                if path.read_bytes() != (out / path.name).read_bytes():
                    failed["report"] = f"{path.name} differs from the agree output"
            row = {"study": digest(_cli_files(sim, out))}
        if not self.agree_repeated and not failed:
            self.agree_repeated = True
            again = study / "agree-repeat"
            proc, _ = cli_command(["agree", out / "results.matched.csv",
                                   "--reference", "truth", "--out-dir", again])
            attempted += 1
            if proc.returncode != 0 or any(
                    path.read_bytes() != (out / path.name).read_bytes()
                    for path in again.iterdir()):
                failed["agree-repeat"] = "agree output differs on a repeat"
        return Outcome(seconds, sum(frames.values()), row,
                       [f"{tag}: {msg}" for tag, msg in failed.items()], len(failed),
                       attempted=attempted, err=err, commands=commands, samples=samples)


def analyze_problems(out: Path) -> tuple[float | None, str | None]:
    """Worst relative error of the study's walks, and what failed if any."""
    doc = json.loads((out / "results.report.json").read_text(encoding="utf-8"))
    bad = [row["walk_id"] for row in doc["walks"] if row["status"] != "ok"]
    if bad or len(doc["walks"]) != STUDY_WALKS:
        return None, f"{len(bad)} walk(s) failed: {', '.join(bad)}"
    values: dict = {}
    with open(out / "results.matched.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            values.setdefault(row["walk_id"], {}).setdefault(
                row["method"], {})[row["parameter"]] = float(row["value"])
    worst = max(worst_rel_err(v["video"], v["truth"]) for v in values.values())
    if not worst <= TOL_NOISY:
        return worst, f"relative error {worst:.2%} above {TOL_NOISY:.0%}"
    return worst, None


# ---------------------------------------------------------------------------


WORKLOADS = {"fit_batch": FitBatch, "synth_io": SynthIO, "study_cli": StudyCLI}


def run_workload(name: str, seed: int, workdir: Path, seconds: float,
                 trace: bool) -> dict:
    workload = WORKLOADS[name](seed, workdir)
    print("ready", flush=True)
    spans = metrics = None
    if not trace:
        passes = [run_timed(workload, seconds)]
    elif name == "study_cli":
        untraced = run_pass(workload)
        workload.traced = True
        passes = [untraced, run_pass(workload)]
        spans = workload.spans()
    else:
        untraced = run_pass(workload)
        tracer = Tracer()
        install(tracer, LAYERS)
        workload.reload_config()
        traced = run_pass(workload, tracer)
        tracer.uninstall()
        spans = [tracer.dump()]
        passes = [untraced, traced]

    failures = [msg for p in passes for msg in p.failures]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = [p.digest for p in passes]
    if len(set(digests)) > 1:
        failures.append(f"output digests differ between the passes: {digests}")
        failed += 1
    if spans is not None:
        (workdir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
        metrics = layer_metrics(spans)
        base = passes[0].seconds
        metrics["trace.overhead_frac"] = (passes[1].seconds - base) / base
    peak_mb = peak_rss_mb()
    figures = {}
    if name == "study_cli":  # simulate ran in the prepare process
        attempted += STUDY_SETS
        failed += len(workload.simulate["errors"])
        failures += [f"simulate {msg}" for msg in workload.simulate["errors"]]
        peak_mb = max(peak_mb, workload.simulate["peak_rss_mb"])
        figures["simulate_s"] = workload.simulate["seconds"]
    return {
        "passes": [{"seconds": p.seconds, "frames": p.frames, "digest": p.digest,
                    "studies": p.studies} for p in passes],
        "samples": [s for p in passes for s in p.samples],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "max_rel_err": max(p.worst_err for p in passes) if name != "synth_io" else None,
        "peak_rss_mb": peak_mb,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "layer_metrics": metrics,
        **figures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("action", choices=("prepare", "setup", "run"))
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.action == "prepare":
        if args.workload == "fit_batch":
            prepare_fit_batch(args.seed, args.dir)
        elif args.workload == "study_cli":
            prepare_study_cli(args.seed, args.dir)
        return 0
    if args.action == "setup":
        WORKLOADS[args.workload](args.seed, args.dir)
        print("ready", flush=True)
        return 0
    result = run_workload(args.workload, args.seed, args.dir, args.seconds,
                          bool(args.trace))
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
