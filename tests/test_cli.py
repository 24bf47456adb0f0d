"""End-to-end command line tests on small synthetic walks."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stridelab
from stridelab import cli, errors, pose_io
from stridelab.cli import main
from stridelab.config import load_config
from stridelab.kinematics import CANONICAL_TREE
from stridelab.optimizer import CONVERGED_REASONS
from stridelab.pipeline import analyze_sequence
from stridelab.skeleton import JointId, SkeletonSequence

WALKS_INI = """\
[walk-a]
speed_m_s = 1.2
cadence_steps_min = 110
distance_m = 2.2
seed = 1

[walk-b]
speed_m_s = 1.0
cadence_steps_min = 96
distance_m = 2.2
seed = 2

[walk-c]
speed_m_s = 1.4
cadence_steps_min = 124
distance_m = 2.2
seed = 3
"""


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, capfd_disabled=None):
    """simulate -> analyze -> agree, shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "walks.ini"
    spec.write_text(WALKS_INI)
    sim = root / "sim"
    out = root / "out"
    assert main(["simulate", str(spec), "--out-dir", str(sim)]) == 0
    poses = sorted(str(p) for p in sim.glob("*.poses.json"))
    assert main(["analyze", *poses, "--out-dir", str(out)]) == 0
    assert main([
        "agree", str(out / "results.matched.csv"),
        "--reference", "truth", "--out-dir", str(out),
    ]) == 0
    return root, sim, out


def test_simulate_writes_pose_and_truth_files(pipeline, capfd):
    _, sim, _ = pipeline
    names = sorted(p.name for p in sim.iterdir())
    assert names == [
        "walk-a.poses.json", "walk-a.truth.json",
        "walk-b.poses.json", "walk-b.truth.json",
        "walk-c.poses.json", "walk-c.truth.json",
    ]


def test_analyze_outputs(pipeline):
    _, _, out = pipeline
    report = json.loads((out / "results.report.json").read_text())
    assert report["schema_version"] == 1
    assert len(report["walks"]) == 3
    for row in report["walks"]:
        assert row["status"] == "ok"
        assert row["converged"] and row["stop_reason"] in CONVERGED_REASONS
        assert row["report"]["gait_speed_m_s"] > 0
    gait = (out / "results.gait.csv").read_text().splitlines()
    assert gait[0].startswith("walk_id,source,gait_speed_m_s")
    assert len(gait) == 4


def test_matched_csv_pairs_every_walk(pipeline):
    _, _, out = pipeline
    lines = (out / "results.matched.csv").read_text().splitlines()
    # header + 3 walks x 2 methods x 4 parameters
    assert len(lines) == 1 + 3 * 2 * 4
    assert lines[0] == "walk_id,subject_id,method,parameter,value"
    methods = {line.split(",")[2] for line in lines[1:]}
    assert methods == {"truth", "video"}


def test_agree_outputs(pipeline):
    _, _, out = pipeline
    agreement = json.loads((out / "agreement.agreement.json").read_text())
    assert agreement["reference_method"] == "truth"
    (video,) = agreement["reports"]
    assert video["other_method"] == "video"
    assert {e["parameter"] for e in video["parameters"]} == {
        "gait_speed_m_s", "cadence_steps_min", "step_length_cm", "step_time_s",
    }
    for e in video["parameters"]:
        assert e["icc_2k"] > 0.9
        assert e["n"] == 3
    table = (out / "agreement.table1.csv").read_text().splitlines()
    assert table[0].startswith("Parameter,Method,n,")
    assert len(table) == 5
    svgs = sorted(out.glob("*.ba.svg"))
    assert len(svgs) == 4
    for svg in svgs:
        assert svg.read_text().startswith("<svg")


def test_report_rerenders_identically(pipeline):
    root, _, out = pipeline
    re_out = root / "re"
    before = {p.name: _digest(p) for p in out.glob("*.svg")}
    before["table"] = _digest(out / "agreement.table1.csv")
    assert main([
        "report", str(out / "agreement.agreement.json"),
        "--out-dir", str(re_out), "--name", "agreement",
    ]) == 0
    after = {p.name: _digest(p) for p in re_out.glob("*.svg")}
    after["table"] = _digest(re_out / "agreement.table1.csv")
    assert before == after


def test_inputs_are_never_mutated(pipeline):
    root, sim, out = pipeline
    digests = {p.name: _digest(p) for p in sim.iterdir()}
    assert main(["analyze", str(sim / "walk-a.poses.json"),
                 "--out-dir", str(root / "scratch")]) == 0
    assert {p.name: _digest(p) for p in sim.iterdir()} == digests


def test_parallel_analysis_matches_serial(pipeline):
    root, sim, out = pipeline
    par = root / "par"
    poses = sorted(str(p) for p in sim.glob("*.poses.json"))
    assert main(["--jobs", "2", "analyze", *poses, "--out-dir", str(par)]) == 0
    for name in ("results.report.json", "results.gait.csv", "results.matched.csv"):
        assert _digest(par / name) == _digest(out / name)


def test_unconverged_fits_keep_ok_rows_that_say_why(pipeline, tmp_path, capsys):
    """With [energy] max_iterations = 1 every fit stops at the cap.  Each
    row stays ok with converged false and stop_reason iteration_cap right
    after iterations, stderr has one warning per walk, the exit code stays
    0, and serial and --jobs 2 runs write identical files."""
    _, sim, _ = pipeline
    cfg = tmp_path / "one-step.ini"
    cfg.write_text("[energy]\nmax_iterations = 1\n")
    poses = sorted(str(p) for p in sim.glob("*.poses.json"))
    runs = [tmp_path / "serial", tmp_path / "jobs"]
    for jobs, out in zip((1, 2), runs):
        assert main(["--config", str(cfg), "--jobs", str(jobs), "analyze", *poses,
                     "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"walk-{w}: warning: fit did not converge (iteration_cap)" for w in "abc"
        ]
        for row in json.loads((out / "results.report.json").read_text())["walks"]:
            assert (row["status"], row["converged"], row["iterations"]) == ("ok", False, 1)
            keys = list(row)
            assert keys[keys.index("iterations") + 1] == "stop_reason"
            assert row["stop_reason"] == "iteration_cap"
    for name in ("results.report.json", "results.gait.csv", "results.matched.csv"):
        assert _digest(runs[1] / name) == _digest(runs[0] / name)


@pytest.mark.parametrize("jobs, n_walks, workers", [(8, 2, 2), (2, 3, 2)])
def test_analyze_starts_no_idle_workers(pipeline, tmp_path, monkeypatch, jobs, n_walks, workers):
    """The pool gets no more workers than there are walks to analyze."""
    _, sim, _ = pipeline
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    poses = sorted(str(p) for p in sim.glob("*.poses.json"))[:n_walks]
    assert main(["--jobs", str(jobs), "analyze", *poses, "--out-dir", str(tmp_path)]) == 0
    assert started == [workers]


_ANALYZE_ONE = cli._analyze_one


def _analyze_or_die(done_dir, path_str, cfg):
    """cli._analyze_one, except that the worker given walk-b exits once the
    rows of the other walks are out."""
    if Path(path_str).name != "walk-b.poses.json":
        row = _ANALYZE_ONE(path_str, cfg)
        (done_dir / row["walk_id"]).touch()
        return row
    deadline = time.monotonic() + 60
    while len(list(done_dir.iterdir())) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.2)  # for the last row to reach the parent
    os._exit(1)


def _die(path_str, cfg):
    os._exit(1)


def test_crashed_worker_gives_error_rows(pipeline, tmp_path, monkeypatch, capsys):
    """A worker that dies breaks the pool: the walks that finished keep their
    rows, the dead walk gets a BrokenProcessPool error row, and the run
    exits 0 because a row is ok.  The forked workers inherit the patch."""
    _, sim, out = pipeline
    done = tmp_path / "done"
    done.mkdir()
    monkeypatch.setattr(cli, "_analyze_one", functools.partial(_analyze_or_die, done))
    poses = sorted(str(p) for p in sim.glob("*.poses.json"))
    assert main(["--jobs", "2", "analyze", *poses, "--out-dir", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "results.report.json").read_text())["walks"]
    assert [(r["walk_id"], r["status"]) for r in rows] == [
        ("walk-a", "ok"), ("walk-b", "error"), ("walk-c", "ok")]
    assert rows[1]["file"] == "walk-b.poses.json"
    assert rows[1]["error"]["type"] == "BrokenProcessPool"
    serial = json.loads((out / "results.report.json").read_text())["walks"]
    assert [rows[0], rows[2]] == [serial[0], serial[2]]
    assert len((tmp_path / "results.gait.csv").read_text().splitlines()) == 3
    assert "analyzed 2/3 walks" in capsys.readouterr().out


def test_every_worker_crashed_exits_1(pipeline, tmp_path, monkeypatch):
    _, sim, _ = pipeline
    monkeypatch.setattr(cli, "_analyze_one", _die)
    poses = sorted(str(p) for p in sim.glob("*.poses.json"))[:2]
    assert main(["--jobs", "2", "analyze", *poses, "--out-dir", str(tmp_path)]) == 1
    rows = json.loads((tmp_path / "results.report.json").read_text())["walks"]
    assert [r["error"]["type"] for r in rows] == ["BrokenProcessPool"] * 2


# Each import-boundary probe runs in a fresh interpreter: this one has
# already loaded scipy.  It prints the exit code of main(argv), whether
# scipy.linalg was loaded after the import and when main returned, whether
# the solver's LAPACK extension was loaded when main returned, and, for
# analyze, whether that extension was loaded when each process pool was
# constructed.
_IMPORT_PROBE = """
import sys
import stridelab, stridelab.cli
from stridelab import cli

LAPACK = "scipy.linalg._flapack"
loaded_at_pool = []

class Probe(cli.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        loaded_at_pool.append(LAPACK in sys.modules)
        super().__init__(*args, **kwargs)

cli.ProcessPoolExecutor = Probe
imported = "scipy.linalg" in sys.modules
code = cli.main(sys.argv[1:])
print(code, imported, "scipy.linalg" in sys.modules, LAPACK in sys.modules, loaded_at_pool)
"""


def _probe(args):
    src = Path(stridelab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_commands_that_never_fit_never_load_scipy(pipeline, tmp_path):
    """Only a Gauss-Newton solve needs scipy's LAPACK extension: importing
    the package and running simulate, agree or report loads neither it nor
    scipy.linalg."""
    root, _, out = pipeline
    commands = {
        "simulate": ["simulate", root / "walks.ini", "--out-dir", tmp_path / "sim"],
        "agree": ["agree", out / "results.matched.csv", "--reference", "truth",
                  "--out-dir", tmp_path / "tables"],
        "report": ["report", out / "agreement.agreement.json",
                   "--out-dir", tmp_path / "rendered"],
    }
    for name, args in commands.items():
        assert _probe(args) == "0 False False False []", name


def test_parallel_analyze_loads_scipy_before_the_fork(pipeline, tmp_path):
    """analyze --jobs 2 loads the solver's LAPACK extension in the parent
    before it starts its workers, so they share its pages; on one worker or
    two, analyze never loads scipy.linalg."""
    _, sim, _ = pipeline
    poses = sorted(sim.glob("*.poses.json"))[:2]
    assert _probe(["--jobs", "2", "analyze", *poses, "--out-dir", tmp_path / "2"]) == \
        "0 False False True [True]"
    assert _probe(["--jobs", "1", "analyze", *poses, "--out-dir", tmp_path / "1"]) == \
        "0 False False True []"


def test_importing_the_cli_loads_no_process_pool():
    """Only analyze --jobs N > 1 needs a process pool: importing the CLI
    loads neither multiprocessing nor concurrent.futures.process."""
    src = Path(stridelab.__file__).resolve().parents[1]
    code = ("import sys, stridelab.cli; print([m for m in "
            "('multiprocessing', 'concurrent.futures.process') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_simulate_is_deterministic(tmp_path):
    spec = tmp_path / "walks.ini"
    spec.write_text("[w]\nspeed_m_s = 1.1\ncadence_steps_min = 100\n"
                    "distance_m = 1.5\nsigma3d_m = 0.01\nseed = 4\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(spec), "--out-dir", str(a)]) == 0
    assert main(["simulate", str(spec), "--out-dir", str(b)]) == 0
    assert _digest(a / "w.poses.json") == _digest(b / "w.poses.json")
    assert _digest(a / "w.truth.json") == _digest(b / "w.truth.json")


def test_simulate_rejects_bad_specs(tmp_path, capsys):
    spec = tmp_path / "walks.ini"
    spec.write_text("[w]\nspeed_m_s = 1.1\ncadence_steps_min = 100\nfps = 5\n")
    assert main(["simulate", str(spec), "--out-dir", str(tmp_path)]) == 2
    assert "fps" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))

    spec.write_text("[w]\nspeed_m_s = 1.1\ncadence_steps_min = 100\nvibe = 11\n")
    assert main(["simulate", str(spec), "--out-dir", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err

    spec.write_text("[w]\nspeed_m_s = 1.1\n")
    assert main(["simulate", str(spec), "--out-dir", str(tmp_path)]) == 2

    spec.write_text("[w]\nspeed_m_s = 1.1%\ncadence_steps_min = 100\n")
    assert main(["simulate", str(spec), "--out-dir", str(tmp_path)]) == 2
    assert "speed_m_s" in capsys.readouterr().err


def test_simulate_rejects_a_default_section(tmp_path, capsys):
    """Walk specs are read like config files: a [DEFAULT] section, whose keys
    configparser would copy into every walk, exits 2 and is named."""
    spec = tmp_path / "walks.ini"
    spec.write_text("[DEFAULT]\nfps = 60\n[w]\nspeed_m_s = 1.1\ncadence_steps_min = 100\n")
    assert main(["simulate", str(spec), "--out-dir", str(tmp_path)]) == 2
    assert "[DEFAULT]" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_simulate_uses_configured_ratios(tmp_path):
    """[anatomy.ratios] shapes the synthesized skeleton, as it does the fit."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[anatomy.ratios]\nleft_ankle = 0.230\n")
    spec = tmp_path / "walks.ini"
    spec.write_text("[w]\nspeed_m_s = 1.1\ncadence_steps_min = 100\n"
                    "distance_m = 1.5\n")
    assert main(["--config", str(cfg), "simulate", str(spec),
                 "--out-dir", str(tmp_path)]) == 0
    seq = pose_io.parse_stream((tmp_path / "w.poses.json").read_bytes())
    knee = seq.points_3d[:, JointId.LEFT_KNEE.value]
    ankle = seq.points_3d[:, JointId.LEFT_ANKLE.value]
    shin = np.linalg.norm(knee - ankle, axis=1) / seq.subject_height_m
    assert shin == pytest.approx(np.full(len(seq), 0.230), abs=1e-9)


@pytest.mark.parametrize(
    "keys, error",
    [("speed_m_s = 3.0\ncadence_steps_min = 60\n", "not reachable"),
     ("speed_m_s = 1.1\ncadence_steps_min = 100\nsubject_height_m = 3.0\n",
      "outside (0.5, 2.5)")],
    ids=["unreachable-step", "height-out-of-range"],
)
def test_simulate_rejects_unbuildable_walks(tmp_path, capsys, keys, error):
    spec = tmp_path / "walks.ini"
    spec.write_text(f"[w]\n{keys}")
    assert main(["simulate", str(spec), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "walk spec [w]" in err and error in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "keys, named",
    [("fps = inf\n", "fps"),
     ("fps = nan\n", "fps"),
     ("distance_m = 1e300\n", "distance_m"),
     ("cadence_steps_min = 1e12\n", "distance_m"),
     ("heading_deg = inf\n", "heading_deg"),
     ("sigma3d_m = inf\n", "sigma3d_m"),
     ("seed = -1\n", "seed")],
    ids=["infinite-fps", "nan-fps", "huge-distance", "too-many-steps",
         "infinite-heading", "infinite-noise", "negative-seed"],
)
def test_simulate_rejects_specs_it_cannot_allocate(tmp_path, capsys, keys, named):
    """Each spec here fails in WalkerSpec, before generate allocates
    anything: exit 2, naming the walk and the key."""
    spec = tmp_path / "walks.ini"
    spec.write_text(f"[w]\nspeed_m_s = 1.1\n{keys}"
                    + ("" if "cadence" in keys else "cadence_steps_min = 100\n"))
    assert main(["simulate", str(spec), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "walk spec [w]" in err and named in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.json"))


def test_simulate_refuses_a_far_start_before_projecting(tmp_path, capsys):
    """A start 1e308 m off the camera axis fails in WalkerSpec: exit 2 with
    one error line, no overflow warning from projecting the walk, and no
    file written."""
    spec = tmp_path / "walks.ini"
    spec.write_text("[w]\nspeed_m_s = 1.1\ncadence_steps_min = 100\nstart_x_m = 1e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", str(spec), "--out-dir", str(tmp_path)])
    assert code == 2
    assert not caught
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: walk spec [w]: start_x_m")
    assert not list(tmp_path.glob("*.json"))


def test_simulate_with_a_huge_image_width_exits_2(tmp_path, capsys):
    """An image side that does not even convert to a float is refused by
    load_config, naming the key, before any walk is read."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[camera]\nimage_width = 1" + "0" * 400 + "\n")
    spec = tmp_path / "walks.ini"
    spec.write_text("[w]\nspeed_m_s = 1.1\ncadence_steps_min = 100\n")
    assert main(["--config", str(cfg), "simulate", str(spec),
                 "--out-dir", str(tmp_path)]) == 2
    assert "camera.image_width" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_simulate_removes_its_files_when_a_later_walk_fails(tmp_path, capsys):
    """Walks are written one by one; when the second cannot be built, the
    first one's files go too, and files from elsewhere stay."""
    spec = tmp_path / "walks.ini"
    spec.write_text(
        "[first]\nspeed_m_s = 1.1\ncadence_steps_min = 100\ndistance_m = 1.5\n"
        "[second]\nspeed_m_s = 1.1\ncadence_steps_min = 100\n"
        "subject_height_m = 3.0\n"
    )
    out = tmp_path / "sim"
    out.mkdir()
    (out / "other.poses.json").write_text("{}")
    assert main(["simulate", str(spec), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "walk spec [second]" in captured.err
    assert "wrote" not in captured.out
    assert sorted(p.name for p in out.iterdir()) == ["other.poses.json"]


def test_simulate_leaves_no_file_when_a_write_fails_midway(tmp_path, capsys, monkeypatch):
    """A pose stream goes to its file chunk by chunk; when a write fails
    after the header and two frames of the second walk, the partial file and
    the first walk's files go, and files from elsewhere stay."""
    chunks = pose_io.stream_chunks
    calls = []

    def fail_on_second_walk(seq):
        calls.append(len(seq))
        if len(calls) == 1:
            yield from chunks(seq)
            return
        yield from list(chunks(seq))[:3]
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pose_io, "stream_chunks", fail_on_second_walk)
    spec = tmp_path / "walks.ini"
    spec.write_text("[first]\nspeed_m_s = 1.1\ncadence_steps_min = 100\ndistance_m = 1.5\n"
                    "[second]\nspeed_m_s = 1.1\ncadence_steps_min = 100\ndistance_m = 1.5\n")
    out = tmp_path / "sim"
    out.mkdir()
    (out / "other.poses.json").write_text("{}")
    assert main(["simulate", str(spec), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "No space left on device" in captured.err and "wrote" not in captured.out
    assert len(calls) == 2
    assert sorted(p.name for p in out.iterdir()) == ["other.poses.json"]


def test_simulate_writes_the_bytes_of_write_stream(tmp_path):
    """The file simulate writes chunk by chunk holds write_stream's bytes."""
    spec = tmp_path / "walks.ini"
    spec.write_text("[w]\nspeed_m_s = 1.1\ncadence_steps_min = 100\ndistance_m = 1.5\n")
    assert main(["simulate", str(spec), "--out-dir", str(tmp_path)]) == 0
    cfg = load_config()
    seq, _ = stridelab.generate(
        stridelab.WalkerSpec(speed_m_s=1.1, cadence_steps_min=100.0, distance_m=1.5),
        camera=cfg.camera, ratios=cfg.ratios)
    assert (tmp_path / "w.poses.json").read_bytes() == pose_io.write_stream(seq)


def _document(n_frames=10, joints_2d=True, joints_3d=True, height=1.72):
    """Ten frames, each with a 2D pelvis (joints_2d) and an empty 3D joint
    map (joints_3d), or without either map."""
    pixels = np.zeros((n_frames, 21, 2))
    pixels[:, JointId.PELVIS.value] = (320.0, 240.0)
    mask = np.zeros((n_frames, 21), dtype=bool)
    blocks = {}
    if joints_2d:
        mask_2d = mask.copy()
        mask_2d[:, JointId.PELVIS.value] = True
        blocks.update(pixels_2d=pixels, confidence_2d=mask_2d * 1.0, mask_2d=mask_2d)
    if joints_3d:
        blocks.update(points_3d=np.zeros((n_frames, 21, 3)), mask_3d=mask)
    seq = SkeletonSequence(fps=30.0, times=np.arange(n_frames) / 30.0,
                           indices=np.arange(n_frames), subject_height_m=height, **blocks)
    return pose_io.write_stream(seq)


@pytest.mark.parametrize(
    "document, error",
    [(b"{not json", "MalformedDocument"),
     (_document(), "MissingModality"),
     (_document(joints_3d=False), "MissingModality"),
     (_document(joints_2d=False, joints_3d=False), "MissingModality"),
     (_document(height=3.0), "OutOfRangeHeight"),
     (_document(height=None), "MissingHeaderField")],
    ids=["malformed", "no-3d-joints", "2d-only", "no-joint-maps", "height-out-of-range",
         "no-height"],
)
def test_analyze_reports_failures_per_walk(tmp_path, capsys, document, error):
    bad = tmp_path / "broken.poses.json"
    bad.write_bytes(document)
    assert main(["analyze", str(bad), "--out-dir", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "results.report.json").read_text())
    row = report["walks"][0]
    assert row["status"] == "error"
    assert row["error"]["type"] == error


def test_frame_without_3d_joints_gives_degenerate_input_row(pipeline, tmp_path, capsys):
    """The fit reads only 3D joints: a frame whose 3D joint map is empty
    gives the walk a DegenerateInput row naming the frame, even though its
    2D joint map is kept, and the other walk still gets an ok row."""
    _, sim, _ = pipeline
    doc = json.loads((sim / "walk-a.poses.json").read_text())
    doc["frames"][4]["joints_3d"] = {}
    assert doc["frames"][4]["joints_2d"]
    bad = tmp_path / "hole.poses.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["analyze", str(bad), str(sim / "walk-b.poses.json"),
                 "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = json.loads((out / "results.report.json").read_text())["walks"]
    assert [row["status"] for row in rows] == ["error", "ok"]
    assert rows[0]["error"] == {"type": "DegenerateInput",
                                "message": "frame(s) [4] carry no 3D joint"}


def test_a_stream_without_height_gives_one_message(clean_walk, tmp_path):
    """analyze_sequence refuses a stream whose header has no subject height,
    and analyze writes its message in the walk's error row."""
    seq = replace(clean_walk[0], subject_height_m=None)
    message = "header field 'subject_height_m' is required for analysis"
    with pytest.raises(errors.MissingHeaderField) as info:
        analyze_sequence(seq, load_config())
    assert str(info.value) == message
    path = tmp_path / "no-height.poses.json"
    path.write_bytes(pose_io.write_stream(seq))
    row = cli._analyze_one(str(path), load_config())
    assert row["error"] == {"type": "MissingHeaderField", "message": message}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("copied", [True, False], ids=["two-directories", "one-file-twice"])
def test_analyze_refuses_two_inputs_with_one_walk_id(pipeline, tmp_path, capsys, jobs,
                                                      copied):
    """Rows are matched by walk id, so analyze exits 2, before any fit,
    when two inputs share one: a file name in two directories, or one file
    given twice."""
    _, sim, _ = pipeline
    first = sim / "walk-a.poses.json"
    second = tmp_path / first.name if copied else first
    if copied:
        second.write_bytes(first.read_bytes())
    out = tmp_path / "out"
    args = ["--jobs", str(jobs), "analyze", str(first), str(sim / "walk-b.poses.json"),
            str(second), "--out-dir", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: walk id 'walk-a' names two inputs: {first} and {second}\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_analyze_deeply_nested_document_gives_error_row(tmp_path, capsys, jobs):
    """json.loads raises RecursionError on deep nesting; analyze, serial or
    on two workers, writes a MalformedDocument row per walk and exits 1."""
    paths = [tmp_path / f"deep-{i}.poses.json" for i in range(2)]
    for path in paths:
        path.write_bytes(b"[" * 100_000)
    args = ["--jobs", str(jobs), "analyze", *map(str, paths), "--out-dir", str(tmp_path)]
    assert main(args) == 1
    report = json.loads((tmp_path / "results.report.json").read_text())
    assert [row["error"]["type"] for row in report["walks"]] == ["MalformedDocument"] * 2
    out = capsys.readouterr().out
    assert out.count("error MalformedDocument: document is not valid JSON") == 2


def test_unreadable_truth_sidecar_is_ignored(pipeline, tmp_path, capsys):
    """A sidecar that exists but cannot be read is warned about and left
    out, as a malformed one is; the walk's results are still written."""
    _, sim, _ = pipeline
    poses = tmp_path / "walk-a.poses.json"
    poses.write_bytes((sim / "walk-a.poses.json").read_bytes())
    (tmp_path / "walk-a.truth.json").mkdir()
    out = tmp_path / "out"
    assert main(["analyze", str(poses), "--out-dir", str(out)]) == 0
    assert "walk-a: ignoring truth sidecar: " in capsys.readouterr().err
    report = json.loads((out / "results.report.json").read_text())
    assert [row["status"] for row in report["walks"]] == ["ok"]
    assert (out / "results.gait.csv").exists()
    assert not (out / "results.matched.csv").exists()


def test_agree_unknown_reference(pipeline, capsys):
    _, _, out = pipeline
    code = main(["agree", str(out / "results.matched.csv"),
                 "--reference", "mocap", "--out-dir", str(out / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "mocap" in err and "truth" in err


def _matched_with_value(out, value):
    """The pipeline's matched CSV with the value of its first record replaced."""
    lines = (out / "results.matched.csv").read_bytes().split(b"\n")
    lines[1] = lines[1].rsplit(b",", 1)[0] + b"," + value
    return b"\n".join(lines)


def _agreement_with(out, change):
    """The pipeline's agreement JSON with its first entry changed."""
    doc = json.loads((out / "agreement.agreement.json").read_text())
    change(doc["reports"][0]["parameters"][0])
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "command, document",
    [("agree", lambda out: b"walk,subject,method,parameter,value\n"),
     ("agree", lambda out: (out / "results.matched.csv").read_bytes().replace(
         b"walk-c", b"walk-\xff")),
     ("agree", lambda out: (out / "results.matched.csv").read_bytes().replace(
         b"walk-b", b"walk-a")),
     ("agree", lambda out: _matched_with_value(out, b"nan")),
     ("report", lambda out: _agreement_with(
         out, lambda e: e.update(pairs=[["1.0", "2.0"]] * 3))),
     ("report", lambda out: _agreement_with(
         out, lambda e: e.update(pairs=e["pairs"][:1]))),
     ("report", lambda out: b"[" * 100_000),
     ("report", lambda out: b"\xff{}")],
    ids=["csv-header", "csv-not-utf8", "csv-repeated-walk", "csv-nan-value",
         "pairs-of-strings", "one-pair", "deeply-nested", "json-not-utf8"],
)
def test_malformed_inputs_exit_2(pipeline, tmp_path, capsys, command, document):
    """A malformed matched CSV or agreement JSON gives one error line and
    exit 2, and no output."""
    _, _, out = pipeline
    bad = tmp_path / "bad.input"
    bad.write_bytes(document(out))
    args = [command, str(bad), "--out-dir", str(tmp_path / "out")]
    if command == "agree":
        args += ["--reference", "truth"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_svgs_escape_markup_in_names(pipeline, tmp_path):
    """A method named with &, < and > gives SVGs that parse as XML, from
    agree and from report, with the name as their title text."""
    _, _, out = pipeline
    matched = tmp_path / "lab.matched.csv"
    matched.write_bytes((out / "results.matched.csv").read_bytes().replace(
        b",video,", b",R&D <lab>,"))
    assert main(["agree", str(matched), "--reference", "truth",
                 "--out-dir", str(tmp_path / "agree")]) == 0
    assert main(["report", str(tmp_path / "agree" / "agreement.agreement.json"),
                 "--out-dir", str(tmp_path / "report")]) == 0
    svgs = sorted(tmp_path.glob("*/*.ba.svg"))
    assert len(svgs) == 8
    for svg in svgs:
        title = ElementTree.parse(svg).getroot().find("{http://www.w3.org/2000/svg}text")
        assert title.text.endswith(": truth vs R&D <lab>")


def _with_methods(out, names):
    """The pipeline's matched CSV with its video rows repeated under each
    of names."""
    lines = (out / "results.matched.csv").read_bytes().splitlines(keepends=True)
    video = [line for line in lines if b",video," in line]
    return b"".join(lines + [line.replace(b",video,", f",{n},".encode())
                             for n in names for line in video])


def test_colliding_plot_names_exit_2(pipeline, tmp_path, capsys):
    """Two methods whose names give one SVG file name would overwrite one
    plot with the other: agree and report exit 2 with one error line naming
    both, before writing any file.  Names that differ in their file names
    are plotted apart."""
    _, _, out = pipeline
    matched = tmp_path / "clash.matched.csv"
    matched.write_bytes(_with_methods(out, ["video 1", "video/1"]))
    assert main(["agree", str(matched), "--reference", "truth",
                 "--out-dir", str(tmp_path / "agree")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'video 1'" in err and "'video/1'" in err
    assert not (tmp_path / "agree").exists()

    doc = json.loads((out / "agreement.agreement.json").read_text())
    first = doc["reports"][0]
    doc["reports"] = [dict(first, other_method=n) for n in ("video 1", "video/1")]
    clash = tmp_path / "clash.agreement.json"
    clash.write_text(json.dumps(doc))
    assert main(["report", str(clash), "--out-dir", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'video 1'" in err and "'video/1'" in err
    assert not (tmp_path / "report").exists()

    matched.write_bytes(_with_methods(out, ["video 1", "video/2"]))
    assert main(["agree", str(matched), "--reference", "truth",
                 "--out-dir", str(tmp_path / "apart")]) == 0
    assert len(list((tmp_path / "apart").glob("*.ba.svg"))) == 12


def test_report_renders_nan_percentages(pipeline, tmp_path):
    """agree writes NaN for a percentage of a zero reference mean; report
    renders it."""
    _, _, out = pipeline
    bad = tmp_path / "nan.agreement.json"
    bad.write_bytes(_agreement_with(
        out, lambda e: e.update(bias_pct=float("nan"), bias_ci_pct=[float("nan")] * 2)))
    assert main(["report", str(bad), "--out-dir", str(tmp_path)]) == 0
    assert "nan [nan, nan]" in (tmp_path / "nan.table1.csv").read_text()


def test_seed_flag_flows_into_agreement(pipeline, tmp_path):
    _, _, out = pipeline
    assert main(["--seed", "123",
                 "agree", str(out / "results.matched.csv"),
                 "--reference", "truth", "--out-dir", str(tmp_path)]) == 0
    agreement = json.loads((tmp_path / "agreement.agreement.json").read_text())
    assert agreement["seed"] == 123


def _trial_records(trials, method="video", parameter="cadence_steps_min"):
    """Long-format records: per subject, one value per trial."""
    return [(f"{subject}-{k}", subject, method, parameter, value)
            for subject, values in trials.items() for k, value in enumerate(values)]


def test_repeatability_entry_for_equal_trials():
    trials = {"s1": [1.0, 1.1, 1.05], "s2": [2.0, 2.2, 2.1], "s3": [3.1, 2.9, 3.0]}
    records = _trial_records(trials) + _trial_records({"s1": [9.0]}, method="truth")
    entry = cli._repeatability_entries(records, "video", "cadence_steps_min")
    assert entry is not None
    assert set(entry) == {"method", "parameter", "icc_31", "n_subjects", "n_trials"}
    assert (entry["method"], entry["parameter"]) == ("video", "cadence_steps_min")
    assert (entry["n_subjects"], entry["n_trials"]) == (3, 3)
    assert 0.9 < entry["icc_31"] <= 1.0


@pytest.mark.parametrize("trials", [
    {"s1": [1.0, 1.1], "s2": [2.0, 2.1, 2.2]},
    {"s1": [1.0], "s2": [2.0], "s3": [3.0]},
    {"s1": [1.0, 1.1, 1.2]},
    {},
], ids=["unequal-trials", "one-trial", "one-subject", "no-subject"])
def test_repeatability_entry_needs_equal_repeated_trials(trials):
    """ICC(3,1) needs two subjects or more with the same number, at least
    two, of trials each; otherwise there is no entry."""
    records = _trial_records(trials)
    assert cli._repeatability_entries(records, "video", "cadence_steps_min") is None


def test_bad_jobs_value(capsys):
    assert main(["--jobs", "0", "analyze", "x.poses.json"]) == 2


def test_missing_input_file(tmp_path, capsys):
    assert main(["agree", str(tmp_path / "nope.csv"),
                 "--reference", "truth"]) == 2


@pytest.mark.parametrize("ratio", ["1.5", "0.6"])
def test_bad_anatomy_ratio_exits_2(pipeline, tmp_path, capsys, ratio):
    """1.5 is outside (0, 1); 0.6 is inside it but stretches the head-to-ankle
    chain past 110 % of standing height.  Both fail before any walk is fit."""
    _, sim, _ = pipeline
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[anatomy.ratios]\nleft_knee = {ratio}\n")
    poses = sorted(str(p) for p in sim.glob("*.poses.json"))
    code = main(["--config", str(cfg), "analyze", *poses,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "anatomy.ratios.left_knee" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tolerance", ["1", "0", "1e-11"])
def test_bad_energy_tolerance_exits_2(pipeline, tmp_path, capsys, tolerance):
    """energy.tolerance is a relative decrease in [1e-10, 1); any other value
    fails before any walk is fit."""
    _, sim, _ = pipeline
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[energy]\ntolerance = {tolerance}\n")
    poses = sorted(str(p) for p in sim.glob("*.poses.json"))
    code = main(["--config", str(cfg), "analyze", *poses,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "energy.tolerance" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_removed_energy_key_exits_2(pipeline, tmp_path, capsys):
    """[energy] w_proj weighed a 2D reprojection term the fit no longer
    has, and w_ik a data term that now has weight 1: a config that still
    sets either exits 2 as an unknown key before any walk is fit, with one
    error line and no traceback."""
    _, sim, _ = pipeline
    for key, raw in (("w_proj", "auto"), ("w_ik", "2")):
        cfg = tmp_path / f"old-{key}.ini"
        cfg.write_text(f"[energy]\n{key} = {raw}\n")
        out = tmp_path / f"out-{key}"
        code = main(["--config", str(cfg), "analyze", str(sim / "walk-a.poses.json"),
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: unknown config key energy.{key}"]
        assert "Traceback" not in err
        assert not out.exists()


_AXES = [tuple(float(v) for v in row) for row in np.vstack([np.eye(3), -np.eye(3)])]
# A limb laid exactly along an axis, or along a random direction.
_limb_dir = st.one_of(
    st.sampled_from(_AXES),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(c * c for c in v) > 1e-6),
)
_joint_subset = st.sets(st.sampled_from([j.label for j in JointId]))


@st.composite
def _pose_documents(draw):
    """Pose documents of 1-6 frames whose limbs (of length 0 to 0.5 m, so
    every depth stays positive) lie along x, y or z or anywhere, with a
    random subset of joints in each modality of each frame."""
    n = draw(st.integers(1, 6))
    fps = draw(st.sampled_from([10.0, 30.0, 60.0]))
    cam = load_config().camera
    frames = []
    for f in range(n):
        X = np.empty((CANONICAL_TREE.n_joints, 3))
        X[0] = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(3.0, 5.0)))
        for j, p in enumerate(CANONICAL_TREE.parents[1:], start=1):
            d = np.array(draw(_limb_dir))
            X[j] = X[p] + draw(st.sampled_from([0.0, 0.1, 0.5])) * d / np.linalg.norm(d)
        frame = {"index": f, "time_s": f / fps}
        labels = [j.label for j in JointId]
        in_3d, in_2d = draw(_joint_subset), draw(_joint_subset)
        if in_3d:
            frame["joints_3d"] = {
                labels[j]: dict(zip("xyz", map(float, X[j])))
                for j in range(len(labels)) if labels[j] in in_3d
            }
        if in_2d:
            conf = draw(st.sampled_from([0.0, 0.3, 1.0]))
            frame["joints_2d"] = {
                labels[j]: {
                    "x": float(cam.fx * X[j, 0] / X[j, 2] + cam.cx),
                    "y": float(cam.fy * X[j, 1] / X[j, 2] + cam.cy),
                    "confidence": conf,
                }
                for j in range(len(labels)) if labels[j] in in_2d
            }
        frames.append(frame)
    return {"header": {"fps": fps, "subject_height_m": draw(st.floats(1.2, 2.1))},
            "frames": frames}


@given(doc=_pose_documents())
@settings(max_examples=40, deadline=None)
def test_analyze_never_raises(tmp_path_factory, doc):
    """Every document parse_stream accepts gives an ok row or an error row
    naming a StrideLabError subclass, never an exception."""
    blob = json.dumps(doc).encode()
    pose_io.parse_stream(blob)
    path = tmp_path_factory.getbasetemp() / "any.poses.json"
    path.write_bytes(blob)
    row = cli._analyze_one(str(path), load_config())
    if row["status"] == "ok":
        assert set(row["report"]) >= {"gait_speed_m_s", "cadence_steps_min"}
    else:
        assert row["status"] == "error"
        assert issubclass(getattr(errors, row["error"]["type"]), errors.StrideLabError)
