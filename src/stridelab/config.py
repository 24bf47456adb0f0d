"""Layered run configuration.

Settings come from three layers, later layers overriding earlier ones:

1. the shipped ``defaults.ini`` (packaged under ``stridelab.data``),
2. an optional user INI file (the CLI's ``--config``),
3. explicit overrides (CLI flags such as ``--seed``).

The merge is validated eagerly: a bad value, an unknown key, or an unknown
section raises :class:`ConfigError` whose message names the offending key
path (``section.key``), so a typo in a config file fails loudly before any
work starts.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from .errors import ConfigError, InvalidRatio, StrideLabError, UnknownJoint
from .events import DetectorConfig
from .optimizer import EnergyConfig
from .skeleton import (
    CameraModel,
    JointId,
    canonical_joint,
    check_ratio_table,
    packaged_defaults,
)

__all__ = ["RunConfig", "load_config"]

# The shipped defaults set every key a section accepts, except these camera
# keys, which they leave commented out.  [anatomy.ratios] takes any edge joint.
_CAMERA_UNSET = ("focal_px", "cx", "cy")
# The largest image side accepted, far beyond any camera: a larger integer
# need not even convert to a float, and the default focal length, the image
# diagonal, could overflow.
_MAX_IMAGE_PX = 100_000


@dataclass(frozen=True)
class RunConfig:
    """Fully validated settings for a pipeline run."""

    ratios: Mapping[JointId, float]
    camera: CameraModel
    energy: EnergyConfig
    detector: DetectorConfig
    resamples: int
    seed: int
    bootstrap_level: float


def _fail(path: str, detail: str) -> ConfigError:
    return ConfigError(f"config key {path}: {detail}")


def _as_float(path: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise _fail(path, f"expected a number, got {raw!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise _fail(path, f"must be finite, got {raw!r}")
    return value


def _as_non_negative(path: str, raw: str) -> float:
    value = _as_float(path, raw)
    if value < 0:
        raise _fail(path, f"must be non-negative, got {value}")
    return value


def _as_int(path: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise _fail(path, f"expected an integer, got {raw!r}") from None


def _read_ini(path: Path, what: str = "config file") -> configparser.ConfigParser:
    """Parse the INI file at path; ``what`` names it in error messages."""
    # No interpolation: a '%' in a value is then a bad number, not a traceback.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed {what} {path}: {exc}") from None
    # configparser folds [DEFAULT] keys into every other section, so they
    # would land in sections the file never names.
    if parser.defaults():
        raise ConfigError(
            f"{what} {path}: section [{parser.default_section}] is not supported; "
            "set each key in its own section"
        )
    return parser


def _merged(user_path: Optional[Path],
            overrides: Mapping[str, str]) -> dict[str, dict[str, str]]:
    """Defaults, then the user file, then overrides keyed ``section.key``."""
    defaults = packaged_defaults()
    table = {section: dict(defaults[section]) for section in defaults.sections()}
    table["camera"].update(dict.fromkeys(_CAMERA_UNSET, ""))

    def accepts(section: str, key: str) -> bool:
        return section == "anatomy.ratios" or key in table[section]

    if user_path is not None:
        parser = _read_ini(user_path)
        for section in parser.sections():
            if section not in table:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                if not accepts(section, key):
                    raise ConfigError(f"unknown config key {section}.{key}")
                table[section][key] = raw
    for dotted, raw in overrides.items():
        section, _, key = dotted.rpartition(".")
        if section not in table or not accepts(section, key):
            raise ConfigError(f"unknown config key {dotted}")
        table[section][key] = raw
    return table


def _build_ratios(section: Mapping[str, str]) -> dict[JointId, float]:
    ratios: dict[JointId, float] = {}
    keys: dict[JointId, str] = {}
    for key, raw in section.items():
        path = f"anatomy.ratios.{key}"
        try:
            joint = canonical_joint(key)
        except UnknownJoint:
            joint = None
        if joint is None:
            raise _fail(path, "not the child joint of a skeleton edge")
        ratios[joint] = _as_float(path, raw)
        keys[joint] = key
    try:
        check_ratio_table(ratios)
    except InvalidRatio as exc:   # every edge is set: the defaults name them all
        raise _fail(", ".join(f"anatomy.ratios.{keys[j]}" for j in exc.joints),
                    str(exc)) from None
    return ratios


def _build_camera(section: Mapping[str, str]) -> CameraModel:
    width = _as_int("camera.image_width", section["image_width"])
    height = _as_int("camera.image_height", section["image_height"])
    optional = {key: _as_float(f"camera.{key}", section[key])
                for key in _CAMERA_UNSET if section[key].strip()}
    for path, value in (("camera.image_width", width), ("camera.image_height", height)):
        if not 0 < value <= _MAX_IMAGE_PX:
            raise _fail(path, f"must be between 1 and {_MAX_IMAGE_PX} pixels")
    if optional.get("focal_px", 1.0) <= 0:
        raise _fail("camera.focal_px", f"must be positive, got {optional['focal_px']}")
    try:
        return CameraModel.default(image_width=width, image_height=height, **optional)
    except (ValueError, StrideLabError) as exc:
        raise ConfigError(f"config section [camera]: {exc}") from None


def _build_energy(section: Mapping[str, str]) -> EnergyConfig:
    """The [energy] section; EnergyConfig checks the ranges, and its
    ValueError, which starts with the field name, names the key here."""
    def num(key: str) -> float:
        return _as_float(f"energy.{key}", section[key])

    max_iterations = _as_int("energy.max_iterations", section["max_iterations"])
    tolerance = num("tolerance")
    try:
        return EnergyConfig(w_ik=num("w_ik"), w_smooth=num("w_smooth"),
                            max_iterations=max_iterations, tolerance=tolerance)
    except ValueError as exc:
        raise ConfigError(f"config key energy.{exc}") from None


def _build_detector(section: Mapping[str, str]) -> DetectorConfig:
    return DetectorConfig(**{key: _as_non_negative(f"detector.{key}", raw)
                             for key, raw in section.items()})


def load_config(path: Optional[Path] = None,
                overrides: Optional[Mapping[str, str]] = None) -> RunConfig:
    """Merge defaults, an optional user file, and overrides into a RunConfig.

    ``overrides`` maps dotted key paths (``"stats.seed"``) to raw string
    values, exactly as a config file would spell them.
    """
    table = _merged(path, dict(overrides or {}))

    version = table["meta"]["schema_version"]
    if version.strip() != "1":
        raise _fail("meta.schema_version", f"unsupported version {version!r}")

    stats = table["stats"]
    resamples = _as_int("stats.resamples", stats["resamples"])
    if resamples < 1000:
        raise _fail("stats.resamples", f"must be at least 1000, got {resamples}")
    seed = _as_int("stats.seed", stats["seed"])
    if seed < 0:
        raise _fail("stats.seed", f"must be non-negative, got {seed}")
    level = _as_float("stats.bootstrap_level", stats["bootstrap_level"])
    if not 0.0 < level < 1.0:
        raise _fail("stats.bootstrap_level",
                    f"must be strictly between 0 and 1, got {level}")

    return RunConfig(
        ratios=_build_ratios(table["anatomy.ratios"]),
        camera=_build_camera(table["camera"]),
        energy=_build_energy(table["energy"]),
        detector=_build_detector(table["detector"]),
        resamples=resamples,
        seed=seed,
        bootstrap_level=level,
    )
