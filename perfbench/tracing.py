"""In-memory call spans around stridelab's public functions.

Tracing is installed from outside the program.  Each public function of a
traced layer module is replaced, on its own module and on every stridelab
module that imported it by name (``cli.optimize``, ``stridelab.optimize``),
with a wrapper that counts the call.  When the call crosses into the layer
from another layer, or from the benchmark, the wrapper also records a span.
Calls a layer makes to itself are counted but folded into the enclosing
span, so a span's self time is the layer's own work between two boundary
crossings.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Every module with measurable work of its own; `skeleton` and `errors` are
# data types.
LAYERS = (
    "walker", "kinematics", "pose_io", "optimizer", "events", "report",
    "stats", "plots", "config", "cli",
)
CLI_COMMANDS = ("simulate", "analyze", "agree", "report")


def _count_optimize(counts, args, kwargs, result):
    counts["optimizer.iterations"] += result.iterations
    counts["optimizer.converged"] += int(result.converged)


def _count_pose_frames(counts, args, kwargs, result):
    positions = args[1] if len(args) > 1 else kwargs["positions"]
    counts["kinematics.fit_params_to_positions_frames"] += len(positions)


def _count_parsed_bytes(counts, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    counts["pose_io.bytes"] += len(data)


def _count_written_bytes(counts, args, kwargs, result):
    counts["pose_io.bytes"] += len(result)


_ON_RETURN = {
    "optimizer.optimize": _count_optimize,
    "kinematics.fit_params_to_positions": _count_pose_frames,
    "pose_io.parse_stream": _count_parsed_bytes,
    "pose_io.write_stream": _count_written_bytes,
}


class Tracer:
    """Spans and call counts for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # One row per span: [name index, parent span index or -1, start, end].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.suspended = False
        self._open: list[tuple[int, str]] = []  # (span index, layer)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        nid = len(self.names)
        self.names.append(name)
        on_return = _ON_RETURN.get(name)
        spans, opened, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            counts[name] += 1
            if opened and opened[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                span = [nid, opened[-1][0] if opened else -1, clock(), 0.0]
                opened.append((len(spans), layer))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    opened.pop()
            if on_return is not None:
                on_return(counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, layer: str) -> None:
        """Wrap owner.attr, and every stridelab binding of the same object."""
        fn = getattr(owner, attr)
        targets = [(owner, attr)]
        if inspect.ismodule(owner):
            for mod in list(sys.modules.values()):
                if mod is None or not mod.__name__.startswith("stridelab"):
                    continue
                targets += [
                    (mod, key) for key, value in vars(mod).items()
                    if value is fn and (mod, key) != (owner, attr)
                ]
        wrapped = self._wrap(fn, name, layer)
        for obj, key in targets:
            self._saved.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            obj, key, original = self._saved.pop()
            setattr(obj, key, original)

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without counting their calls."""
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.dump()), encoding="utf-8")


def install(tracer: Tracer, layers) -> None:
    """Wrap the public functions of each named stridelab layer module."""
    import scipy.sparse.linalg

    # cli imports every layer, so all `from .x import f` bindings exist.
    from stridelab import cli, optimizer

    for layer in layers:
        if layer == "cli":
            for command in CLI_COMMANDS:
                tracer.patch(cli, f"_cmd_{command}", f"cli.{command}", "cli")
            continue
        mod = importlib.import_module(f"stridelab.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                tracer.patch(mod, attr, f"{layer}.{attr}", layer)
    if "optimizer" in layers:
        tracer.patch(optimizer.EnergyProblem, "energy_terms",
                     "optimizer.energy_terms", "optimizer")
        tracer.patch(scipy.sparse.linalg, "spsolve",
                     "optimizer.linear_solve", "scipy")


# Functions whose self time and call count are reported, by span name.
TIMED = (
    "optimizer.initial_params",
    "kinematics.position_jacobian",
    "kinematics.fk_from_matrices",
    "kinematics.forward_kinematics",
    "kinematics.fit_params_to_positions",
    "walker.generate",
    "pose_io.parse_stream",
    "pose_io.write_stream",
    "events.detect_steps",
    "report.compute_report",
    "stats.compare_methods",
    "plots.bland_altman_svg",
    "config.load_config",
)


def layer_metrics(dumps) -> dict[str, float]:
    """Per-layer metrics from the span dumps of one or more processes.

    Every metric is present; a layer the workload does not reach reads 0.
    """
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    counts: Counter = Counter()
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        child_s = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (nid, _, start, end) in enumerate(spans):
            self_s[names[nid]] += end - start - child_s[i]
            total_s[names[nid]] += end - start
        counts.update(dump["counts"])

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {
        "optimizer.optimize_self_s": self_s["optimizer.optimize"],
        "optimizer.optimize_calls": counts["optimizer.optimize"],
        "optimizer.linear_solve_s": self_s["optimizer.linear_solve"],
        "optimizer.linear_solves": counts["optimizer.linear_solve"],
        "optimizer.s_per_iteration": ratio(
            total_s["optimizer.optimize"], counts["optimizer.iterations"]),
        "optimizer.iterations": counts["optimizer.iterations"],
        "optimizer.energy_evals": counts["optimizer.energy_terms"],
        # Every linear solve is one attempted step; an iteration is an
        # accepted one.
        "optimizer.step_accept_ratio": ratio(
            counts["optimizer.iterations"], counts["optimizer.linear_solve"]),
        "optimizer.converged_frac": ratio(
            counts["optimizer.converged"], counts["optimizer.optimize"]),
    }
    for name in TIMED:
        m[f"{name}_s"] = self_s[name]
        if name == "kinematics.fit_params_to_positions":
            m[f"{name}_frames"] = counts[f"{name}_frames"]
        else:
            m[f"{name}_calls"] = counts[name]
    io_s = self_s["pose_io.parse_stream"] + self_s["pose_io.write_stream"]
    m["pose_io.mb_per_s"] = ratio(counts["pose_io.bytes"] / 1e6, io_s)
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = self_s[f"cli.{command}"]
    return m
