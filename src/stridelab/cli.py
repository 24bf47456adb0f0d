"""Command-line front end.

Four subcommands cover the study workflow:

    stridelab simulate walks.ini --out-dir data/
        Synthesize walks from an INI file (one section per walk) into
        ``<id>.poses.json`` plus a ``<id>.truth.json`` sidecar each.

    stridelab analyze data/*.poses.json --out-dir results/
        Run the fitting and step-detection pipeline on each pose stream and
        write ``<name>.gait.csv``, a JSON run report, and, when truth
        sidecars sit next to the inputs, a long-format matched CSV pairing
        the pipeline's numbers ("video") against the sidecar's ("truth").

    stridelab agree results/results.matched.csv --reference truth --out-dir tables/
        Method-agreement statistics per gait parameter: a JSON report, a
        summary CSV shaped like a publication table, and one Bland-Altman
        SVG per method/parameter pair.

    stridelab report tables/agreement.json --out-dir tables/
        Re-render the CSV and SVG outputs from an existing agreement report.

Exit codes: 0 on success, 1 when a command ran but produced no usable
result (every walk failed, no parameter had enough pairs), 2 for usage or
configuration errors, among them two analyze inputs with one walk id (the
same file name in two directories, or one file given twice).  All outputs
are deterministic: the same inputs, config, and seeds produce
byte-identical files.  No command modifies its inputs.

Only analyze loads scipy: the optimizer's banded Cholesky solve loads
scipy's compiled LAPACK extension (scipy/linalg/_flapack) alone, without
the scipy.linalg package, and analyze with --jobs N > 1 loads it before
forking its workers, so they share its pages.  simulate, agree and report
never load it.  No command imports scipy.linalg, and only analyze with
--jobs N > 1 loads multiprocessing, for its process pool.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
from dataclasses import asdict, fields as dataclass_fields
from pathlib import Path
from typing import Optional, Sequence

from . import pose_io, stats
from .config import RunConfig, _read_ini, load_config
from .errors import ConfigError, MalformedDocument, StrideLabError
from .optimizer import _lapack
from .pipeline import analyze_sequence
from .plots import bland_altman_svg
from .pose_io import _json_bytes, _require_number, _rounded
from .report import PARAMETERS, truth_values
from .walker import WalkerSpec, generate

__all__ = ["main"]

_PIPELINE_METHOD = "video"
_TRUTH_METHOD = "truth"

_PARAM_UNITS = {p.name: p.unit for p in PARAMETERS}
_PARAM_LABELS = {p.name: p.label for p in PARAMETERS}


def __getattr__(name: str):
    """ProcessPoolExecutor and BrokenProcessPool, imported on first access:
    only analyze --jobs N > 1 uses them, and loading multiprocessing for
    them would cost every other command 13-20 ms of start-up (2 vCPUs,
    Python 3.11)."""
    if name in ("ProcessPoolExecutor", "BrokenProcessPool"):
        from concurrent.futures import process

        value = globals()[name] = getattr(process, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _slug(text: str) -> str:
    out = re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-.")
    return out or "x"


# ---------------------------------------------------------------------------
# simulate

_WALK_FIELDS = {f.name: f.type for f in dataclass_fields(WalkerSpec)}


def _parse_walk_section(walk_id: str, section) -> WalkerSpec:
    kwargs: dict = {}
    for key, raw in section.items():
        if key not in _WALK_FIELDS:
            raise ConfigError(f"walk spec [{walk_id}]: unknown key {key!r}")
        try:
            kwargs[key] = int(raw, 10) if key == "seed" else float(raw)
        except ValueError:
            raise ConfigError(
                f"walk spec [{walk_id}] {key}: expected a number, got {raw!r}"
            ) from None
    try:
        return WalkerSpec(**kwargs)
    except (ValueError, StrideLabError) as exc:
        raise ConfigError(f"walk spec [{walk_id}]: {exc}") from None


def _cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    parser = _read_ini(args.walks, "walk specs")
    if not parser.sections():
        raise ConfigError(f"walk specs {args.walks}: no walk sections")

    specs: list[tuple[str, WalkerSpec]] = []
    for sid in parser.sections():
        if _slug(sid) != sid:
            raise ConfigError(
                f"walk spec [{sid}]: section name must be filename-safe"
            )
        specs.append((sid, _parse_walk_section(sid, parser[sid])))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Walks are generated and written one at a time, so only one is held in
    # memory, and a pose stream goes to its file frame by frame, never whole;
    # a failure, also one in the middle of a file, removes what this run
    # wrote, and the report lines are printed only once every walk is written.
    written: list[Path] = []
    report: list[str] = []
    try:
        for walk_id, spec in specs:
            try:
                seq, truth = generate(spec, camera=cfg.camera, ratios=cfg.ratios)
            except (ValueError, StrideLabError) as exc:
                raise ConfigError(f"walk spec [{walk_id}]: {exc}") from None
            for path, chunks in (
                (out_dir / f"{walk_id}.poses.json", pose_io.stream_chunks(seq)),
                (out_dir / f"{walk_id}.truth.json", [pose_io.write_truth(truth)]),
            ):
                written.append(path)
                with path.open("wb") as fp:
                    fp.writelines(chunks)
            report.append(f"{walk_id}: wrote {len(seq)} frames ({truth.n_steps} steps)")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    print("\n".join(report))
    return 0


# ---------------------------------------------------------------------------
# analyze

def _walk_id_for(path: Path) -> str:
    name = path.name
    return name[: -len(".poses.json")] if name.endswith(".poses.json") else path.stem


def _error_row(path: Path, exc: BaseException) -> dict:
    return {"walk_id": _walk_id_for(path), "file": path.name, "status": "error",
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def _analyze_one(path_str: str, cfg: RunConfig) -> dict:
    """Process one pose stream; returns a JSON-ready result row."""
    path = Path(path_str)
    row: dict = {"walk_id": _walk_id_for(path), "file": path.name}
    try:
        seq = pose_io.parse_stream(path.read_bytes())
        fitted, rep = analyze_sequence(seq, cfg)
    except (StrideLabError, OSError) as exc:
        return _error_row(path, exc)
    row["status"] = "ok"
    row["source"] = seq.source
    row["converged"] = fitted.converged
    row["iterations"] = fitted.iterations
    row["stop_reason"] = fitted.stop_reason
    # Every scalar of the report; the per-step tuples stay out.
    row["report"] = _rounded(
        {k: v for k, v in vars(rep).items() if not isinstance(v, tuple)}
    )
    return row


def _truth_records(poses_path: Path, walk_id: str) -> list[tuple[str, str, str, str, float]]:
    sidecar = poses_path.with_name(f"{walk_id}.truth.json")
    if not sidecar.exists():
        return []
    truth = truth_values(pose_io.read_truth(sidecar.read_bytes()))
    return [(walk_id, walk_id, _TRUTH_METHOD, name, v) for name, v in truth.items()]


def _cmd_analyze(args: argparse.Namespace, cfg: RunConfig) -> int:
    paths = [Path(p) for p in args.poses]
    # Rows are matched by walk id, so two inputs with one id would merge.
    first: dict[str, Path] = {}
    for path in paths:
        walk_id = _walk_id_for(path)
        if walk_id in first:
            raise ConfigError(f"walk id {walk_id!r} names two inputs: "
                              f"{first[walk_id]} and {path}")
        first[walk_id] = path
    if args.jobs > 1 and len(paths) > 1:
        # Through the module, whose __getattr__ loads the pool types.
        module = sys.modules[__name__]
        # The solver's LAPACK extension is loaded before the fork, so the
        # workers share its pages instead of each loading it for its first
        # fit.
        _lapack()

        # The fork start method launches every worker up front: start no
        # more than there are walks.  A worker that dies breaks the pool:
        # the walks that finished keep their rows, the others get an error
        # row.
        with module.ProcessPoolExecutor(max_workers=min(args.jobs, len(paths))) as pool:
            futures = [pool.submit(_analyze_one, str(p), cfg) for p in paths]
            rows = []
            for path, future in zip(paths, futures):
                try:
                    rows.append(future.result())
                except module.BrokenProcessPool as exc:
                    rows.append(_error_row(path, exc))
    else:
        rows = [_analyze_one(str(p), cfg) for p in paths]

    matched: list[tuple[str, str, str, str, float]] = []
    for path, row in zip(paths, rows):
        if row["status"] != "ok":
            err = row["error"]
            print(f"{row['walk_id']}: error {err['type']}: {err['message']}")
            continue
        if not row["converged"]:
            print(f"{row['walk_id']}: warning: fit did not converge ({row['stop_reason']})",
                  file=sys.stderr)
        rep = row["report"]
        speed, cadence = PARAMETERS[:2]
        print(
            f"{row['walk_id']}: ok speed={rep[speed.name]:.3f} {speed.unit} "
            f"cadence={rep[cadence.name]:.1f} {cadence.unit} "
            f"({rep['steps_used']} steps)"
        )
        for p in PARAMETERS:
            matched.append(
                (row["walk_id"], row["walk_id"], _PIPELINE_METHOD, p.name, rep[p.name])
            )
        try:
            matched.extend(_truth_records(path, row["walk_id"]))
        except (StrideLabError, OSError) as exc:
            print(
                f"{row['walk_id']}: ignoring truth sidecar: {exc}", file=sys.stderr
            )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.name}.report.json").write_bytes(
        _json_bytes({"schema_version": 1, "walks": rows})
    )

    ok_rows = [r for r in rows if r["status"] == "ok"]
    with open(out_dir / f"{args.name}.gait.csv", "w", encoding="utf-8", newline="") as fh:
        pose_io.write_gait_csv(
            fh, [(r["walk_id"], r["source"], r["report"]) for r in ok_rows]
        )
    has_truth = any(rec[2] == _TRUTH_METHOD for rec in matched)
    if has_truth:
        with open(
            out_dir / f"{args.name}.matched.csv", "w", encoding="utf-8", newline=""
        ) as fh:
            pose_io.write_matched_csv(fh, matched)

    n_ok = len(ok_rows)
    print(f"analyzed {n_ok}/{len(paths)} walks")
    return 0 if n_ok else 1


# ---------------------------------------------------------------------------
# agree

def _repeatability_entries(
    records: Sequence[tuple[str, str, str, str, float]],
    method: str,
    parameter: str,
) -> Optional[dict]:
    """ICC(3,1) across repeated trials, when every subject has the same
    number (at least two) of trials of this method and parameter."""
    trials: dict[str, list[float]] = {}
    for _, subject_id, m, param, value in records:
        if m == method and param == parameter:
            trials.setdefault(subject_id, []).append(value)
    counts = {len(v) for v in trials.values()}
    if len(trials) < 2 or len(counts) != 1 or counts == {1}:
        return None
    k = counts.pop()
    subjects = list(trials)
    table = stats.MeasurementTable(
        values=[trials[s] for s in subjects],
        parameter=parameter,
        unit=_PARAM_UNITS.get(parameter, ""),
        rows=tuple(subjects),
        subjects=tuple(subjects),
        columns=tuple(f"trial {i + 1}" for i in range(k)),
    )
    try:
        value = stats.icc(table, (3, 1))
    except StrideLabError:
        return None
    return {
        "method": method,
        "parameter": parameter,
        "icc_31": value,
        "n_subjects": len(subjects),
        "n_trials": k,
    }


def _fmt_mean_sd(mean: float, sd: float) -> str:
    return f"{mean:.3g} ({sd:.3g})"


def _fmt_diff_ci(entry: dict) -> str:
    lo, hi = entry["bias_ci_pct"]
    return f"{entry['bias_pct']:.1f} [{lo:.1f}, {hi:.1f}]"


def _render_table_csv(doc: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        [
            "Parameter",
            "Method",
            "n",
            "Reference mean (SD)",
            "Method mean (SD)",
            "ICC(2,k)",
            "ICC(3,1)",
            "Diff [95% CI] in % of mean",
        ]
    )
    for report in doc["reports"]:
        for entry in report["parameters"]:
            label = _PARAM_LABELS.get(entry["parameter"], entry["parameter"])
            unit = entry["unit"]
            name = f"{label} ({unit})" if unit else label
            w.writerow(
                [
                    name,
                    report["other_method"],
                    entry["n"],
                    _fmt_mean_sd(entry["mean_ref"], entry["sd_ref"]),
                    _fmt_mean_sd(entry["mean_other"], entry["sd_other"]),
                    f"{entry['icc_2k']:.2f}",
                    f"{entry['icc_31']:.2f}",
                    _fmt_diff_ci(entry),
                ]
            )
    return buf.getvalue()


def _plot_files(doc: dict, name: str) -> list[tuple[dict, dict, str]]:
    """(report, parameter entry, file name) for each Bland-Altman SVG of
    doc.  Two methods or parameters whose names differ only where _slug
    replaces characters would share a file, one plot overwriting the
    other: that raises ConfigError naming both."""
    files = []
    owner: dict[str, tuple[str, str]] = {}
    for report in doc["reports"]:
        for entry in report["parameters"]:
            method, parameter = report["other_method"], entry["parameter"]
            fname = f"{name}.{_slug(method)}.{_slug(parameter)}.ba.svg"
            if fname in owner:
                first = owner[fname]
                raise ConfigError(
                    f"the Bland-Altman plots of method {first[0]!r} ({first[1]}) and "
                    f"method {method!r} ({parameter}) would both be written to {fname}"
                )
            owner[fname] = (method, parameter)
            files.append((report, entry, fname))
    return files


def _render_outputs(doc: dict, out_dir: Path, name: str,
                    files: list[tuple[dict, dict, str]]) -> None:
    """Write doc's table and its Bland-Altman SVGs, files as _plot_files
    gives them."""
    (out_dir / f"{name}.table1.csv").write_text(
        _render_table_csv(doc), encoding="utf-8", newline=""
    )
    for report, entry, fname in files:
        a = [p[0] for p in entry["pairs"]]
        b = [p[1] for p in entry["pairs"]]
        label = _PARAM_LABELS.get(entry["parameter"], entry["parameter"])
        svg = bland_altman_svg(
            a,
            b,
            parameter=label,
            unit=entry["unit"],
            method_a=doc["reference_method"],
            method_b=report["other_method"],
        )
        (out_dir / fname).write_text(svg, encoding="utf-8", newline="")


def _cmd_agree(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        with open(args.matched, encoding="utf-8", newline="") as fh:
            records = pose_io.read_matched_csv(fh)
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{args.matched} is not valid UTF-8: {exc}") from None
    methods: list[str] = []
    parameters: list[str] = []
    for _, _, method, param, _ in records:
        if method not in methods:
            methods.append(method)
        if param not in parameters:
            parameters.append(param)
    if args.reference not in methods:
        raise ConfigError(
            f"reference method {args.reference!r} not in {args.matched}; "
            f"methods present: {', '.join(methods)}"
        )

    reports = []
    for other in (m for m in methods if m != args.reference):
        entries = []
        repeats = []
        for param in parameters:
            subset = [r for r in records if r[3] == param]
            try:
                table = stats.MeasurementTable.from_records(
                    ((w, s, m, v) for w, s, m, _, v in subset),
                    parameter=param,
                    unit=_PARAM_UNITS.get(param, ""),
                    columns=(args.reference, other),
                )
                pa = stats.compare_methods(
                    table,
                    resamples=cfg.resamples,
                    level=cfg.bootstrap_level,
                    seed=cfg.seed,
                )
            except (StrideLabError, ValueError) as exc:
                print(
                    f"skipping {param} ({args.reference} vs {other}): {exc}",
                    file=sys.stderr,
                )
                continue
            entries.append(asdict(pa))
            print(
                f"{param} ({args.reference} vs {other}): "
                f"ICC(2,k)={pa.icc_2k:.3f} [{pa.classification}] "
                f"bias={pa.bias:.4g} {pa.unit}"
            )
            for method in (args.reference, other):
                rep = _repeatability_entries(records, method, param)
                if rep is not None:
                    repeats.append(rep)
        if entries:
            reports.append(
                {
                    "other_method": other,
                    "n_excluded": sum(e["n_excluded"] for e in entries),
                    "parameters": entries,
                    "repeatability": repeats,
                }
            )

    if not reports:
        print("no parameter had enough complete pairs", file=sys.stderr)
        return 1

    doc = {
        "schema_version": 1,
        "reference_method": args.reference,
        "resamples": cfg.resamples,
        "bootstrap_level": cfg.bootstrap_level,
        "seed": cfg.seed,
        "reports": _rounded(reports),
    }
    files = _plot_files(doc, args.name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.name}.agreement.json").write_bytes(_json_bytes(doc))
    _render_outputs(doc, out_dir, args.name, files)
    return 0


# ---------------------------------------------------------------------------
# report

_KIND_NAMES = {str: "a string", int: "an integer", list: "a list"}


def _check(obj, key: str, kind: type, where: str):
    """obj[key], which must exist and be of type kind (a bool is no int)."""
    if not isinstance(obj, dict):
        raise MalformedDocument(f"{where} must be an object")
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedDocument(f"{where}.{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _check_number(value, where: str, finite: bool = False) -> None:
    """value must be a number; NaN, which `agree` writes for a percentage of
    a zero reference mean, passes unless finite is asked for."""
    if finite or not (isinstance(value, float) and math.isnan(value)):
        _require_number(value, where)


def _check_pair(value, where: str, finite: bool = False) -> None:
    if not isinstance(value, list) or len(value) != 2:
        raise MalformedDocument(f"{where} must be a list of 2 numbers, got {value!r}")
    for v in value:
        _check_number(v, where, finite)


# The numbers of an agreement entry that table 1 prints, besides bias_ci_pct.
_TABLE_NUMBERS = ("mean_ref", "sd_ref", "mean_other", "sd_other", "icc_2k", "icc_31",
                  "bias_pct")


def _read_agreement(path: Path) -> dict:
    """The agreement JSON at path, with every field that table 1 and the
    plots read checked; a missing or mistyped one raises MalformedDocument."""
    try:
        doc = pose_io.load_json_object(path.read_bytes(), "document")
        _check(doc, "reference_method", str, "top level")
        for i, report in enumerate(_check(doc, "reports", list, "top level")):
            where = f"reports[{i}]"
            _check(report, "other_method", str, where)
            for j, entry in enumerate(_check(report, "parameters", list, where)):
                at = f"{where}.parameters[{j}]"
                for key, kind in (("parameter", str), ("unit", str), ("n", int)):
                    _check(entry, key, kind, at)
                for key in _TABLE_NUMBERS:
                    _check_number(entry.get(key), f"{at}.{key}")
                _check_pair(entry.get("bias_ci_pct"), f"{at}.bias_ci_pct")
                # A Bland-Altman plot needs two pairs or more.
                pairs = _check(entry, "pairs", list, at)
                if len(pairs) < 2:
                    raise MalformedDocument(
                        f"{at}.pairs holds {len(pairs)}, not 2 or more")
                for k, pair in enumerate(pairs):
                    _check_pair(pair, f"{at}.pairs[{k}]", finite=True)
    except MalformedDocument as exc:
        raise MalformedDocument(f"agreement report {path}: {exc}") from None
    return doc


def _cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    del cfg  # rendering is fully determined by the stored report
    path = Path(args.agreement)
    doc = _read_agreement(path)
    if not doc["reports"]:
        print("agreement report holds no comparisons", file=sys.stderr)
        return 1
    name = args.name or _slug(path.name.split(".")[0])
    files = _plot_files(doc, name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _render_outputs(doc, out_dir, name, files)
    n = sum(len(r["parameters"]) for r in doc["reports"])
    print(f"rendered {n} comparisons from {path.name}")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stridelab",
        description="Markerless gait analysis: synthesize, fit, detect, compare.",
    )
    parser.add_argument("--config", metavar="INI", default=None,
                        help="user config file layered over the shipped defaults")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="process up to N walks in parallel (analyze)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override stats.seed from the config")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize walks from an INI spec file")
    p.add_argument("walks", help="INI file, one [walk-id] section per walk")
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="fit poses and extract gait parameters")
    p.add_argument("poses", nargs="+", help=".poses.json files")
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.add_argument("--name", default="results", metavar="NAME",
                   help="basename for the output files")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("agree", help="method agreement from a matched CSV")
    p.add_argument("matched", help="long-format matched CSV")
    p.add_argument("--reference", required=True, metavar="METHOD",
                   help="method name the others are compared against")
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.add_argument("--name", default="agreement", metavar="NAME")
    p.set_defaults(func=_cmd_agree)

    p = sub.add_parser("report", help="re-render tables and plots from a report")
    p.add_argument("agreement", help="agreement JSON written by `agree`")
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.add_argument("--name", default=None, metavar="NAME")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    overrides = {}
    if args.seed is not None:
        overrides["stats.seed"] = str(args.seed)
    try:
        cfg = load_config(
            Path(args.config) if args.config else None, overrides
        )
        return args.func(args, cfg)
    except (ConfigError, MalformedDocument, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
