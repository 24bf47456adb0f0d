"""End-to-end command line tests on small synthetic walks."""

import hashlib
import json
import math

import pytest

from stridelab import pose_io
from stridelab.cli import main
from stridelab.skeleton import (
    JointId,
    Point2D,
    SkeletonFrame2D,
    SkeletonFrame3D,
    SkeletonSequence,
)

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
    for frame in seq.frames_3d:
        knee = frame.joints[JointId.LEFT_KNEE]
        ankle = frame.joints[JointId.LEFT_ANKLE]
        shin = math.dist(knee, ankle) / seq.subject_height_m
        assert shin == pytest.approx(0.230, abs=1e-9)


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


def _no_3d_joints_document():
    """Ten frames with 2D detections whose 3D joint maps are all empty."""
    times = [(f, f / 30.0) for f in range(10)]
    seq = SkeletonSequence(
        fps=30.0,
        frames_2d=tuple(
            SkeletonFrame2D(index=f, time_s=t, joints={JointId.PELVIS: Point2D(320.0, 240.0)})
            for f, t in times
        ),
        frames_3d=tuple(SkeletonFrame3D(index=f, time_s=t, joints={}) for f, t in times),
        subject_height_m=1.72,
    )
    return pose_io.write_stream(seq)


@pytest.mark.parametrize(
    "document, error",
    [(b"{not json", "MalformedDocument"), (_no_3d_joints_document(), "MissingModality")],
    ids=["malformed", "no-3d-joints"],
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
