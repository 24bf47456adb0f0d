#!/usr/bin/env python3
"""Parameter-recovery accuracy across a speed/cadence grid.

Runs the full in-process pipeline (synthesize -> fit -> detect -> report)
for each grid point and prints per-parameter relative errors against ground
truth, plus the worst case.  Each walk's row ends with its fit time, the
fit's accepted iterations and why it stopped (optimizer.STOP_REASONS).
Useful for probing how the 3D noise level or the frame rate moves the error
envelope and the fit's convergence without setting up a study directory;
the fit reads no 2D joint, so the walks carry no 2D noise.  A walk
the pipeline fails on prints an error row and the sweep goes on; the worst
case covers the walks that ran.  Exits 1 when none ran, 2 on a bad argument.
"""

import argparse
import sys
import time

import numpy as np

from stridelab import RunConfig, StrideLabError, WalkerSpec, generate, load_config
from stridelab.optimizer import OptimizedSequence
from stridelab.pipeline import analyze_sequence
from stridelab.report import PARAMETERS, truth_values


def run_walk(spec: WalkerSpec,
             cfg: RunConfig) -> tuple[np.ndarray, float, OptimizedSequence]:
    """The walk's relative errors per parameter, its analysis time in
    seconds and its fit."""
    seq, truth = generate(spec)
    t0 = time.perf_counter()
    result = analyze_sequence(seq, cfg)
    dt = time.perf_counter() - t0
    got = np.array([getattr(result.report, p.name) for p in PARAMETERS])
    want = np.array(list(truth_values(vars(truth)).values()))
    return np.abs(got - want) / want, dt, result.fitted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--walks", type=int, default=10)
    ap.add_argument("--sigma3d", type=float, default=0.0)
    ap.add_argument("--distance", type=float, default=6.0)
    ap.add_argument("--fps", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.walks < 1:
        ap.error(f"--walks must be at least 1, got {args.walks}")

    specs = []
    for i in range(args.walks):
        f = i / (args.walks - 1) if args.walks > 1 else 0.5
        try:
            specs.append(WalkerSpec(
                speed_m_s=0.8 + 1.2 * f,
                cadence_steps_min=90 + 60 * f,
                distance_m=args.distance,
                fps=args.fps,
                sigma3d_m=args.sigma3d,
                seed=args.seed + i,
            ))
        except (ValueError, StrideLabError) as exc:
            print(f"error: walk spec: {exc}", file=sys.stderr)
            return 2

    cfg = load_config()
    errors = []
    header = f"{'speed':>6} {'cadence':>8} " + "".join(
        f"{p.label + ' err':>17}" for p in PARAMETERS
    ) + f" {'fit s':>7} {'iters':>5}  stop"
    print(header)
    for spec in specs:
        grid = f"{spec.speed_m_s:>6.2f} {spec.cadence_steps_min:>8.1f}"
        try:
            rel, dt, fitted = run_walk(spec, cfg)
        except StrideLabError as exc:
            print(f"{grid}  error {type(exc).__name__}: {exc}")
            continue
        errors.append(rel)
        cells = "".join(f"{100 * e:>16.3f}%" for e in rel)
        print(f"{grid} {cells} {dt:>7.2f} {fitted.iterations:>5}  {fitted.stop_reason}")
    if not errors:
        print("no walk ran through the pipeline", file=sys.stderr)
        return 1

    worst = np.max(errors, axis=0)
    print("\nworst relative error per parameter:")
    for p, e in zip(PARAMETERS, worst):
        print(f"  {p.label:<12} {100 * e:.3f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
