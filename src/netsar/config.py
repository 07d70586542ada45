"""Run configuration: nested dataclasses with a flat key = value format.

The on-disk format is line-oriented ``section.key = value`` text, one
assignment per line, ``#`` comments allowed. It is diff-friendly and
parseable from any language; serialize(parse(text)) is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError


@dataclass(frozen=True)
class SceneConfig:
    extent_m: float = 400.0
    resolution_m: float = 1.0
    reflector_count: int = 12
    reflector_side_m: float = 4.0
    seed: int = 1


@dataclass(frozen=True)
class NetworkConfig:
    grid_side: int = 3
    grid_spacing_m: float = 200.0
    station_height_m: float = 60.0
    antenna_count: int = 64
    antenna_spacing_m: float = 0.029979


@dataclass(frozen=True)
class WaveformConfig:
    carrier_frequency_hz: float = 5.0e9
    subcarrier_count: int = 256
    subcarrier_spacing_hz: float = 2.0e6


@dataclass(frozen=True)
class ScheduleConfig:
    transmit_probability: float = 0.5
    channel_count: int = 5
    slot_count: int = 200
    max_receive_distance_m: float = 400.0
    seed: int = 12345


@dataclass(frozen=True)
class BeamConfig:
    open_angle_deg: float = 10.0
    aim_radius_m: float = 120.0


@dataclass(frozen=True)
class ReconstructionConfig:
    algorithm: str = "intersect"
    pixel_spacing_m: float = 0.25
    fusion_method: str = "mean"
    height_plane_count: int = 0


@dataclass(frozen=True)
class RunConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    waveform: WaveformConfig = field(default_factory=WaveformConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    beam: BeamConfig = field(default_factory=BeamConfig)
    reconstruction: ReconstructionConfig = field(default_factory=ReconstructionConfig)
    output_dir: str = "out"

    def __post_init__(self):
        _validate(self)


_ALGORITHMS = ("procedure1", "procedure2", "intersect", "3d", "isar")


def _require(cond: bool, name: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{name}: {message}")


def _validate(cfg: RunConfig) -> None:
    s, n, w, sch, b, r = (
        cfg.scene, cfg.network, cfg.waveform, cfg.schedule, cfg.beam,
        cfg.reconstruction,
    )
    _require(s.extent_m > 0, "scene.extent_m", "must be positive")
    _require(s.resolution_m > 0, "scene.resolution_m", "must be positive")
    _require(s.reflector_count >= 0, "scene.reflector_count", "must be nonnegative")
    _require(0 < s.reflector_side_m <= s.extent_m,
             "scene.reflector_side_m", "must be positive and fit the extent")
    _require(n.grid_side >= 1, "network.grid_side", "must be >= 1")
    _require(n.grid_spacing_m > 0, "network.grid_spacing_m", "must be positive")
    _require(n.station_height_m > 0, "network.station_height_m", "must be positive")
    _require(n.antenna_count >= 1, "network.antenna_count", "must be >= 1")
    _require(n.antenna_spacing_m > 0, "network.antenna_spacing_m", "must be positive")
    _require(w.carrier_frequency_hz > 0, "waveform.carrier_frequency_hz",
             "must be positive")
    _require(w.subcarrier_count >= 1, "waveform.subcarrier_count", "must be >= 1")
    _require(w.subcarrier_spacing_hz > 0, "waveform.subcarrier_spacing_hz",
             "must be positive")
    _require(0.0 <= sch.transmit_probability <= 1.0,
             "schedule.transmit_probability", "must lie in [0, 1]")
    _require(sch.channel_count >= 1, "schedule.channel_count", "must be >= 1")
    _require(sch.slot_count >= 0, "schedule.slot_count", "must be nonnegative")
    _require(sch.max_receive_distance_m > 0,
             "schedule.max_receive_distance_m", "must be positive")
    _require(0 < b.open_angle_deg < 180, "beam.open_angle_deg",
             "must lie in (0, 180)")
    _require(b.aim_radius_m >= 0, "beam.aim_radius_m", "must be nonnegative")
    _require(r.algorithm in _ALGORITHMS, "reconstruction.algorithm",
             f"must be one of {_ALGORITHMS}")
    _require(r.pixel_spacing_m > 0, "reconstruction.pixel_spacing_m",
             "must be positive")
    _require(r.fusion_method in ("mean", "product"),
             "reconstruction.fusion_method", "must be mean or product")
    _require(r.height_plane_count >= 4
             or (r.height_plane_count == 0 and r.algorithm != "3d"),
             "reconstruction.height_plane_count",
             "must be >= 4, or 0 when the algorithm is not 3d")


_SECTIONS = {
    "scene": SceneConfig,
    "network": NetworkConfig,
    "waveform": WaveformConfig,
    "schedule": ScheduleConfig,
    "beam": BeamConfig,
    "reconstruction": ReconstructionConfig,
}


# field annotations are strings under postponed evaluation
_TYPES = {"int": int, "float": float, "str": str}


def _coerce(raw: str, target_type, name: str):
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        if target_type is str:
            return raw
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r} as {target_type.__name__}") from exc
    raise ConfigError(f"{name}: unsupported field type {target_type}")


def parse_config(text: str) -> RunConfig:
    """Parse flat ``section.key = value`` text into a validated RunConfig."""
    values: dict[str, dict[str, object]] = {k: {} for k in _SECTIONS}
    top: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key == "output_dir":
            top["output_dir"] = raw
            continue
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} is not sectioned")
        section, name = key.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        hints = {f.name: f.type for f in fields(_SECTIONS[section])}
        if name not in hints:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        hint = hints[name]
        values[section][name] = _coerce(raw, _TYPES.get(hint, hint), key)
    kwargs = {sect: cls(**values[sect]) for sect, cls in _SECTIONS.items()}
    kwargs.update(top)
    return RunConfig(**kwargs)


def serialize_config(cfg: RunConfig) -> str:
    """Flat text form; floats use repr so round trips are bit-exact."""
    lines = []
    for sect, cls in _SECTIONS.items():
        obj = getattr(cfg, sect)
        for f in fields(cls):
            v = getattr(obj, f.name)
            rendered = repr(v) if isinstance(v, float) else str(v)
            lines.append(f"{sect}.{f.name} = {rendered}")
    lines.append(f"output_dir = {cfg.output_dir}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    """Parse a UTF-8 config file; every ConfigError it raises names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
