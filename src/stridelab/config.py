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
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional

from .errors import ConfigError, StrideLabError
from .events import DetectorConfig
from .optimizer import EnergyConfig
from .skeleton import HEIGHT_CHAIN, CameraModel, JointId, canonical_joint

__all__ = ["RunConfig", "load_config"]

# Keys each section accepts.  [anatomy.ratios] is open-ended (any edge joint)
# and is validated separately against the joint table.
_SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "meta": ("schema_version",),
    "camera": ("image_width", "image_height", "focal_px", "cx", "cy"),
    "energy": ("w_ik", "w_proj", "w_smooth", "w_depth",
               "max_iterations", "tolerance"),
    "detector": ("min_prominence_m", "min_separation_s", "cluster_window_s",
                 "value_tolerance_m", "min_travel_m"),
    "stats": ("resamples", "seed", "bootstrap_level"),
}


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


def _as_int(path: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise _fail(path, f"expected an integer, got {raw!r}") from None


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    return parser


def _packaged_defaults() -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    with resources.files("stridelab.data").joinpath("defaults.ini").open() as fh:
        parser.read_file(fh)
    return parser


def _merged(user_path: Optional[Path],
            overrides: Mapping[str, str]) -> dict[str, dict[str, str]]:
    """Defaults, then the user file, then overrides keyed ``section.key``."""
    table: dict[str, dict[str, str]] = {}
    layers = [_packaged_defaults()]
    if user_path is not None:
        layers.append(_read_ini(user_path))
    for parser in layers:
        for section in parser.sections():
            known = section in _SECTION_KEYS or section == "anatomy.ratios"
            if not known:
                raise ConfigError(f"unknown config section [{section}]")
            dest = table.setdefault(section, {})
            for key, raw in parser[section].items():
                if section != "anatomy.ratios" and key not in _SECTION_KEYS[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                dest[key] = raw
    for dotted, raw in overrides.items():
        section, _, key = dotted.rpartition(".")
        if not section or section not in table or key not in _SECTION_KEYS.get(section, ()):
            raise ConfigError(f"unknown config key {dotted}")
        table[section][key] = raw
    return table


def _build_ratios(section: Mapping[str, str]) -> dict[JointId, float]:
    ratios: dict[JointId, float] = {}
    for key, raw in section.items():
        path = f"anatomy.ratios.{key}"
        joint = canonical_joint(key)
        if joint is None or joint is JointId.PELVIS:
            raise _fail(path, "not the child joint of a skeleton edge")
        value = _as_float(path, raw)
        if not 0.0 < value < 1.0:
            raise _fail(path, f"ratio must be strictly between 0 and 1, got {value}")
        ratios[joint] = value
    missing = [j.name.lower() for j in JointId
               if j is not JointId.PELVIS and j not in ratios]
    if missing:
        raise ConfigError(f"[anatomy.ratios] missing edges: {', '.join(missing)}")
    # The same bound AnatomyProfile puts on lengths, as a fraction of height.
    chain = sum(ratios[j] for j in HEIGHT_CHAIN)
    if not 0.9 <= chain <= 1.1:
        keys = ", ".join(f"anatomy.ratios.{j.name.lower()}" for j in HEIGHT_CHAIN)
        raise ConfigError(
            f"config keys {keys}: head-to-ankle ratios sum to {chain:.3f}, "
            "outside [0.9, 1.1]"
        )
    return ratios


def _build_camera(section: Mapping[str, str]) -> CameraModel:
    width = _as_int("camera.image_width", section.get("image_width", "1080"))
    height = _as_int("camera.image_height", section.get("image_height", "1920"))
    optional: dict[str, Optional[float]] = {}
    for key in ("focal_px", "cx", "cy"):
        raw = section.get(key, "")
        optional[key] = _as_float(f"camera.{key}", raw) if raw.strip() else None
    for path, value in (("camera.image_width", width),
                        ("camera.image_height", height)):
        if value <= 0:
            raise _fail(path, f"must be positive, got {value}")
    if optional["focal_px"] is not None and optional["focal_px"] <= 0:
        raise _fail("camera.focal_px", f"must be positive, got {optional['focal_px']}")
    try:
        return CameraModel.default(image_width=width, image_height=height,
                                   focal_px=optional["focal_px"],
                                   cx=optional["cx"], cy=optional["cy"])
    except (ValueError, StrideLabError) as exc:
        raise ConfigError(f"config section [camera]: {exc}") from None


def _build_energy(section: Mapping[str, str]) -> EnergyConfig:
    def num(key: str, default: str) -> float:
        value = _as_float(f"energy.{key}", section.get(key, default))
        if value < 0:
            raise _fail(f"energy.{key}", f"must be non-negative, got {value}")
        return value

    raw_proj = section.get("w_proj", "auto").strip().lower()
    w_proj = None if raw_proj == "auto" else num("w_proj", raw_proj)
    max_iterations = _as_int("energy.max_iterations",
                             section.get("max_iterations", "80"))
    if max_iterations < 1:
        raise _fail("energy.max_iterations",
                    f"must be at least 1, got {max_iterations}")
    tolerance = num("tolerance", "1e-9")
    if tolerance <= 0:
        raise _fail("energy.tolerance", f"must be positive, got {tolerance}")
    return EnergyConfig(w_ik=num("w_ik", "1.0"), w_proj=w_proj,
                        w_smooth=num("w_smooth", "0.1"),
                        w_depth=num("w_depth", "0.1"),
                        max_iterations=max_iterations, tolerance=tolerance)


def _build_detector(section: Mapping[str, str]) -> DetectorConfig:
    values: dict[str, float] = {}
    for key in _SECTION_KEYS["detector"]:
        default = getattr(DetectorConfig, key)
        values[key] = _as_float(f"detector.{key}", section.get(key, repr(default)))
        if values[key] < 0:
            raise _fail(f"detector.{key}",
                        f"must be non-negative, got {values[key]}")
    return DetectorConfig(**values)


def load_config(path: Optional[Path] = None,
                overrides: Optional[Mapping[str, str]] = None) -> RunConfig:
    """Merge defaults, an optional user file, and overrides into a RunConfig.

    ``overrides`` maps dotted key paths (``"stats.seed"``) to raw string
    values, exactly as a config file would spell them.
    """
    table = _merged(path, dict(overrides or {}))

    meta = table.get("meta", {})
    if meta.get("schema_version", "1").strip() != "1":
        raise _fail("meta.schema_version",
                    f"unsupported version {meta['schema_version']!r}")

    stats = table.get("stats", {})
    resamples = _as_int("stats.resamples", stats.get("resamples", "10000"))
    if resamples < 1000:
        raise _fail("stats.resamples", f"must be at least 1000, got {resamples}")
    seed = _as_int("stats.seed", stats.get("seed", "0"))
    if seed < 0:
        raise _fail("stats.seed", f"must be non-negative, got {seed}")
    level = _as_float("stats.bootstrap_level", stats.get("bootstrap_level", "0.95"))
    if not 0.0 < level < 1.0:
        raise _fail("stats.bootstrap_level",
                    f"must be strictly between 0 and 1, got {level}")

    return RunConfig(
        ratios=_build_ratios(table.get("anatomy.ratios", {})),
        camera=_build_camera(table.get("camera", {})),
        energy=_build_energy(table.get("energy", {})),
        detector=_build_detector(table.get("detector", {})),
        resamples=resamples,
        seed=seed,
        bootstrap_level=level,
    )
