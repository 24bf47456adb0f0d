"""End-to-end command line tests on small synthetic walks."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stridelab
from stridelab import cli, errors, pose_io
from stridelab.cli import main
from stridelab.config import load_config
from stridelab.kinematics import CANONICAL_TREE
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
# already loaded scipy.  It prints the exit code of main(argv) and whether
# scipy.linalg was loaded when it returned (and, for analyze, when each
# process pool was constructed).
_IMPORT_PROBE = """
import sys
import stridelab, stridelab.cli
from stridelab import cli

loaded_at_pool = []

class Probe(cli.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        loaded_at_pool.append("scipy.linalg" in sys.modules)
        super().__init__(*args, **kwargs)

cli.ProcessPoolExecutor = Probe
imported = "scipy.linalg" in sys.modules
code = cli.main(sys.argv[1:])
print(code, imported, "scipy.linalg" in sys.modules, loaded_at_pool)
"""


def _probe(args):
    src = Path(stridelab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_commands_that_never_fit_never_load_scipy(pipeline, tmp_path):
    """Only a Gauss-Newton solve needs scipy.linalg: importing the package
    and running simulate, agree or report leaves it unloaded."""
    root, _, out = pipeline
    commands = {
        "simulate": ["simulate", root / "walks.ini", "--out-dir", tmp_path / "sim"],
        "agree": ["agree", out / "results.matched.csv", "--reference", "truth",
                  "--out-dir", tmp_path / "tables"],
        "report": ["report", out / "agreement.agreement.json",
                   "--out-dir", tmp_path / "rendered"],
    }
    for name, args in commands.items():
        assert _probe(args) == "0 False False []", name


def test_parallel_analyze_loads_scipy_before_the_fork(pipeline, tmp_path):
    """analyze --jobs 2 loads scipy.linalg in the parent before it starts its
    workers, so they share its pages."""
    _, sim, _ = pipeline
    poses = sorted(sim.glob("*.poses.json"))[:2]
    assert _probe(["--jobs", "2", "analyze", *poses, "--out-dir", tmp_path]) == \
        "0 False True [True]"


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


def _document(n_frames=10, joints_2d=True, joints_3d=True):
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
                           indices=np.arange(n_frames), subject_height_m=1.72, **blocks)
    return pose_io.write_stream(seq)


@pytest.mark.parametrize(
    "document, error",
    [(b"{not json", "MalformedDocument"),
     (_document(), "MissingModality"),
     (_document(joints_3d=False), "MissingModality"),
     (_document(joints_2d=False, joints_3d=False), "MissingModality")],
    ids=["malformed", "no-3d-joints", "2d-only", "no-joint-maps"],
)
def test_analyze_reports_failures_per_walk(tmp_path, capsys, document, error):
    bad = tmp_path / "broken.poses.json"
    bad.write_bytes(document)
    assert main(["analyze", str(bad), "--out-dir", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "results.report.json").read_text())
    row = report["walks"][0]
    assert row["status"] == "error"
    assert row["error"]["type"] == error


def test_agree_unknown_reference(pipeline, capsys):
    _, _, out = pipeline
    code = main(["agree", str(out / "results.matched.csv"),
                 "--reference", "mocap", "--out-dir", str(out / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "mocap" in err and "truth" in err


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
     ("report", lambda out: _agreement_with(
         out, lambda e: e.update(pairs=[["1.0", "2.0"]] * 3))),
     ("report", lambda out: _agreement_with(
         out, lambda e: e.update(pairs=e["pairs"][:1])))],
    ids=["csv-header", "csv-not-utf8", "pairs-of-strings", "one-pair"],
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
