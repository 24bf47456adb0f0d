"""Layered INI configuration loading."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from stridelab import (
    CameraModel,
    ConfigError,
    DetectorConfig,
    EnergyConfig,
    InvalidRatio,
    JointId,
    derive_anatomy,
    load_config,
)
from stridelab.skeleton import default_ratio_table, packaged_defaults


def test_defaults_load_without_a_file():
    cfg = load_config()
    assert cfg.resamples == 10_000
    assert cfg.seed == 0
    assert cfg.bootstrap_level == pytest.approx(0.95)
    assert cfg.energy.w_ik == pytest.approx(1.0)
    assert cfg.energy.w_smooth == pytest.approx(0.1)
    assert cfg.detector.min_prominence_m == pytest.approx(0.05)
    assert cfg.camera.cx == pytest.approx(540.0)
    assert cfg.ratios == default_ratio_table()


def test_shipped_defaults_equal_the_code_defaults():
    cfg = load_config()
    assert cfg.energy == EnergyConfig()
    assert cfg.detector == DetectorConfig()
    assert cfg.camera == CameraModel.default()


def test_user_file_overrides_single_keys(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[detector]\nmin_prominence_m = 0.08\n[stats]\nseed = 7\n")
    cfg = load_config(p)
    assert cfg.detector.min_prominence_m == pytest.approx(0.08)
    assert cfg.seed == 7
    # untouched keys keep their defaults
    assert cfg.detector.min_separation_s == pytest.approx(0.2)
    assert cfg.resamples == 10_000


def test_overrides_beat_user_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[stats]\nseed = 7\n")
    cfg = load_config(p, overrides={"stats.seed": "99"})
    assert cfg.seed == 99


def test_ratio_override_changes_anatomy(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[anatomy.ratios]\nleft_knee = 0.250\n")
    cfg = load_config(p)
    assert cfg.ratios[JointId.LEFT_KNEE] == pytest.approx(0.250)
    assert cfg.ratios[JointId.RIGHT_KNEE] == pytest.approx(0.245)


def test_camera_focal_override(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[camera]\nfocal_px = 1500\n")
    cfg = load_config(p)
    assert cfg.camera.fx == pytest.approx(1500.0)
    assert cfg.camera.fy == pytest.approx(1500.0)


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[detecter]\nmin_prominence_m = 0.08\n")
    with pytest.raises(ConfigError, match=r"unknown config section"):
        load_config(p)


@pytest.mark.parametrize(
    "extra",
    ["", "[stats]\nresamples = 2000\n", "[detector]\nmin_prominence_m = 0.08\n"],
    ids=["alone", "with-stats", "with-detector"],
)
def test_default_section_rejected(tmp_path, extra):
    """configparser copies [DEFAULT] keys into every section: alone they were
    ignored, next to [stats] they set stats.seed, next to [detector] they
    failed as detector.seed.  Each case now names the section."""
    p = tmp_path / "run.ini"
    p.write_text("[DEFAULT]\nseed = 7\n" + extra)
    with pytest.raises(ConfigError, match=r"section \[DEFAULT\] is not supported"):
        load_config(p)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[detector]\nprominence = 0.08\n")
    with pytest.raises(ConfigError, match=r"unknown config key detector.prominence"):
        load_config(p)


@pytest.mark.parametrize("section, key, raw", [
    ("detector", "cluster_window_s", "0.15"),
    ("energy", "w_proj", "auto"),
    ("energy", "w_depth", "0.1"),
], ids=["cluster_window_s", "w_proj", "w_depth"])
def test_removed_key_rejected(tmp_path, section, key, raw):
    """Keys that were removed fail as any unknown key does:
    detector.cluster_window_s changed no result, and energy.w_proj and
    energy.w_depth weighed the 2D reprojection and root-depth terms, which
    the fit no longer has."""
    p = tmp_path / "run.ini"
    p.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value) == f"unknown config key {section}.{key}"


def test_bad_values_name_the_key(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[detector]\nmin_prominence_m = -1\n")
    with pytest.raises(ConfigError, match=r"config key detector.min_prominence_m"):
        load_config(p)
    p.write_text("[stats]\nresamples = 50\n")
    with pytest.raises(ConfigError, match=r"config key stats.resamples"):
        load_config(p)
    p.write_text("[stats]\nbootstrap_level = 1.5\n")
    with pytest.raises(ConfigError, match=r"config key stats.bootstrap_level"):
        load_config(p)
    p.write_text("[energy]\nmax_iterations = 0\n")
    with pytest.raises(ConfigError, match=r"config key energy.max_iterations"):
        load_config(p)
    p.write_text("[energy]\nw_ik = banana\n")
    with pytest.raises(ConfigError, match=r"config key energy.w_ik"):
        load_config(p)


@pytest.mark.parametrize(
    "raw", ["0", "-1e-6", "1e-12", "9.9e-11", "1", "1.0", "1.5", "nan", "inf", "banana"])
def test_tolerance_must_be_a_relative_decrease(tmp_path, raw):
    """energy.tolerance is a relative energy decrease: below 1e-10 the test
    sits under the rounding noise of the energy and fits run to the
    iteration cap, 1 or more would stop after any first step."""
    p = tmp_path / "run.ini"
    p.write_text(f"[energy]\ntolerance = {raw}\n")
    with pytest.raises(ConfigError, match=r"config key energy.tolerance"):
        load_config(p)


@pytest.mark.parametrize("key", ["w_ik", "w_smooth"])
def test_negative_energy_weight_names_the_key(tmp_path, key):
    """EnergyConfig checks the weights; the error still names the key."""
    p = tmp_path / "run.ini"
    p.write_text(f"[energy]\n{key} = -0.5\n")
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value) == f"config key energy.{key}: must be non-negative, got -0.5"


@pytest.mark.parametrize("raw", ["1e-10", "1e-9", "0.5"])
def test_tolerance_inside_the_unit_interval_accepted(tmp_path, raw):
    p = tmp_path / "run.ini"
    p.write_text(f"[energy]\ntolerance = {raw}\n")
    assert load_config(p).energy.tolerance == float(raw)


def test_unparseable_file_rejected(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("detector]\n= nope\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_non_utf8_file_rejected(tmp_path):
    p = tmp_path / "run.ini"
    p.write_bytes(b"\xff\xfe[energy]\n")
    with pytest.raises(ConfigError, match="malformed config file"):
        load_config(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_bad_override_key_rejected():
    with pytest.raises(ConfigError):
        load_config(overrides={"stats.nope": "1"})
    with pytest.raises(ConfigError):
        load_config(overrides={"noseparator": "1"})


@pytest.mark.parametrize("line", ["banana = 0.1", "left_knee = 25%"])
def test_bad_ratio_lines_name_the_key(tmp_path, line):
    p = tmp_path / "run.ini"
    p.write_text(f"[anatomy.ratios]\n{line}\n")
    key = line.split(" =")[0]
    with pytest.raises(ConfigError, match=rf"anatomy\.ratios\.{key}"):
        load_config(p)


_EDGE_KEYS = [j.name.lower() for j in JointId if j is not JointId.PELVIS]
_FLOAT_TEXT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_RATIO_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "1", "1.0"]),
    st.floats(max_value=0.0, allow_nan=False).map(repr),
    st.floats(min_value=1.0, allow_nan=False).map(repr),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True).map(repr),
    _FLOAT_TEXT,
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(_EDGE_KEYS), raw=_RATIO_TEXT)
def test_config_and_anatomy_judge_a_ratio_alike(tmp_path_factory, key, raw):
    """One rule set: load_config rejects a ratio, naming its key, exactly when
    derive_anatomy rejects the same value in the shipped table."""
    p = tmp_path_factory.mktemp("ratio") / "run.ini"
    p.write_text(f"[anatomy.ratios]\n{key} = {raw}\n", encoding="utf-8")
    try:
        load_config(p)
        rejected = False
    except ConfigError as exc:
        assert re.search(rf"anatomy\.ratios\.{key}\b", str(exc)), str(exc)
        rejected = True
    try:
        value = float(raw)
    except ValueError:
        assert rejected  # not a number at all
        return
    table = default_ratio_table()
    table[JointId[key.upper()]] = value
    try:
        derive_anatomy(1.7, table)
    except InvalidRatio:
        assert rejected
    else:
        assert not rejected and 0.0 < value < 1.0 and math.isfinite(value)


def _every_key():
    """(section, key) for every key load_config accepts: those the shipped
    defaults set, and the camera keys they leave commented out."""
    defaults = packaged_defaults()
    keys = [(section, key) for section in defaults.sections() for key in defaults[section]]
    return keys + [("camera", key) for key in ("focal_px", "cx", "cy")]


_ANY_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["1" + "0" * 400, "-" + "9" * 400, "1e400", "1e308", "-1e308",
                     "5e-324", "0", "-0", "auto", " 1 ", ""]),
)


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(_every_key()), raw=_ANY_TEXT)
def test_any_value_of_any_key_loads_or_names_its_section(key, raw):
    """Bad configuration is a ConfigError, whatever the key and the text:
    never another exception."""
    section, name = key
    try:
        load_config(overrides={f"{section}.{name}": raw})
    except ConfigError as exc:
        assert section in str(exc), str(exc)


@pytest.mark.parametrize("key", ["image_width", "image_height"])
@pytest.mark.parametrize("raw", ["0", "-3", "100001", "1" + "0" * 400])
def test_image_sides_outside_the_range_name_the_key(key, raw):
    with pytest.raises(ConfigError, match=rf"camera\.{key}"):
        load_config(overrides={f"camera.{key}": raw})
