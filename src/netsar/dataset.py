"""Datasets on disk: the network a config describes, the checksum
manifest, and the writer and the streaming reader of samples.npy.

A dataset is the directory ``simulate`` writes: ``config.txt``,
``patches.csv`` (one row per patch), ``samples.npy`` (one (antenna,
subcarrier) grid per row) and ``manifest.txt`` (the sha256 of each
artifact).
"""

from __future__ import annotations

import hashlib
import io
import math
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config, serialize_config
from .errors import ConfigError, CorruptDatasetError, InvalidBeamError, MissingDatasetError
from .forward import MeasurementPatch, WaveformSpec
from .geometry import BaseStation, BeamSpec, GroundPoint, beam_footprint
from .imageio import read_table

# ---------------------------------------------------------------- network


def build_network(cfg: RunConfig) -> list[BaseStation]:
    """Stations on a square grid centered on the scene origin.

    Each array is mounted broadside to the station's line of sight to
    the scene center (the deployment that minimizes the orientation
    phase ramp for looks near the center).
    """
    n = cfg.network
    side = n.grid_side
    stations = []
    for i in range(side):
        for j in range(side):
            x = (i - (side - 1) / 2.0) * n.grid_spacing_m
            y = (j - (side - 1) / 2.0) * n.grid_spacing_m
            if abs(x) < 1e-9 and abs(y) < 1e-9:
                orientation = 0.0
            else:
                orientation = math.atan2(-y, -x) + math.pi / 2
            stations.append(
                BaseStation(
                    position=GroundPoint(x, y, n.station_height_m),
                    antenna_count=n.antenna_count,
                    antenna_spacing=n.antenna_spacing_m,
                    array_orientation=orientation,
                    station_id=f"bs{i}{j}",
                )
            )
    return stations


def channel_waveform(cfg: RunConfig, channel: int) -> WaveformSpec:
    """Waveform of one frequency channel: carriers stacked by bandwidth."""
    w = cfg.waveform
    bandwidth = w.subcarrier_count * w.subcarrier_spacing_hz
    return WaveformSpec(
        carrier_frequency=w.carrier_frequency_hz + channel * bandwidth,
        subcarrier_count=w.subcarrier_count,
        subcarrier_spacing=w.subcarrier_spacing_hz,
    )


# --------------------------------------------------------------- manifest


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def write_manifest(
    out: Path, cfg: RunConfig, seed: int, extra_lines: list[str], names: list[str]
) -> None:
    """key = value manifest with a checksum of each artifact, written last.

    ``names`` are the files, relative to out, that the run wrote; other
    files already in out are not listed. A ``checksum.<name> = <sha256>``
    line among extra_lines gives that artifact's checksum, which is then
    not read back from disk; it is listed with the other checksums, in
    name order.
    """
    lines = [f"config_hash = {_config_hash(cfg)}", f"seed = {seed}"]
    known = {}
    for line in extra_lines:
        key, _, value = line.partition(" = ")
        if key.startswith("checksum."):
            known[key] = value
        else:
            lines.append(line)
    for name in sorted(names):
        key = f"checksum.{name}"
        lines.append(f"{key} = {known.get(key) or _sha256(out / name)}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _read_manifest(path: Path) -> dict[str, str]:
    """Every ``key = value`` line of a manifest, by key."""
    lines = path.read_bytes().decode(errors="replace").splitlines()
    return dict(line.partition(" = ")[::2] for line in lines)


# ---------------------------------------------------------------- writing

PATCH_COLUMNS = ["slot", "channel", "tx_id", "rx_id", "tilt", "planar"]


def _save_npy(path: Path, shape: tuple[int, ...], blocks) -> str:
    """Write the complex64 array of the given shape, block by block, to path.

    The file is the one np.save writes of that array (format 1.0), its
    header built from the shape alone. The blocks are the array's
    shape[0] rows in turn; each is cast to complex64, written and hashed
    as it comes, so the whole array is never held. Returns the file's
    sha256.
    """
    header = io.BytesIO()
    descr = np.lib.format.dtype_to_descr(np.dtype(np.complex64))
    np.lib.format.write_array_header_1_0(
        header, {"descr": descr, "fortran_order": False, "shape": shape}
    )
    digest = hashlib.sha256(header.getbuffer())
    with open(path, "wb") as fh:
        fh.write(header.getbuffer())
        for block in blocks:
            row = np.ascontiguousarray(block, dtype=np.complex64)
            fh.write(row)
            digest.update(row)
    return digest.hexdigest()


# ---------------------------------------------------------------- reading


class Dataset:
    """A dataset checked in everything but its sample values.

    ``path`` is the dataset directory. Its rows are those of patches.csv,
    in order: ``len`` counts them and ``footprints`` holds each row's
    beam footprint. Iterating it, or ``patches(rows)``, reads samples.npy
    once, in row order: each row is read into its own array of the
    stored dtype, hashed and checked for finite values, and yielded as a
    MeasurementPatch, so a caller holds only the patches it keeps. The file's checksum is compared after the
    last row, so a caller must write nothing until iteration has ended.
    """

    def __init__(self, path: Path, rows: list[tuple], header: bytes, dtype: np.dtype,
                 checksum: str):
        self.path = path
        self._rows = rows  # (tx, rx, waveform, footprint) per patches.csv row
        self._header = header  # samples.npy up to its first sample
        self._dtype = dtype
        self._checksum = checksum  # of samples.npy, as manifest.txt records it

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def footprints(self) -> list:
        return [footprint for *_, footprint in self._rows]

    def __iter__(self):
        return self.patches()

    def patches(self, rows=None):
        """The patches of the given row indices (all rows by default), in row order.

        Every row of samples.npy is read, hashed and checked, whether
        yielded or not. Raises CorruptDatasetError when the file is
        truncated, holds a non-finite sample, or, after the last row,
        does not match the checksum manifest.txt records.
        """
        wanted = range(len(self._rows)) if rows is None else set(rows)
        where = f"samples.npy in {self.path}"
        # the parts' float dtype: np.isfinite runs about twice as fast on it
        part = np.empty(0, self._dtype).real.dtype
        digest = hashlib.sha256(self._header)
        with open(self.path / "samples.npy", "rb") as fh:
            fh.seek(len(self._header))
            for i, (tx, rx, wf, footprint) in enumerate(self._rows):
                samples = np.empty((rx.antenna_count, wf.subcarrier_count), self._dtype)
                raw = samples.reshape(-1).view(np.uint8)
                if fh.readinto(raw) != raw.size:
                    raise CorruptDatasetError(f"{where} is truncated")
                digest.update(raw)
                if not np.isfinite(raw.view(part)).all():
                    raise CorruptDatasetError(f"{where} holds non-finite samples")
                if i in wanted:
                    yield MeasurementPatch(samples, tx, rx, wf, footprint.center, footprint)
            # bytes past the last sample belong to the file's checksum too
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
        if digest.hexdigest() != self._checksum:
            raise CorruptDatasetError(
                f"{where} does not match the checksum manifest.txt records"
            )


def open_dataset(cfg: RunConfig, dataset: Path) -> Dataset:
    """Check a simulate_run dataset but for its sample values; read none of them.

    The dataset's config.txt is the one source of its geometry: the
    given config must equal it in every section except reconstruction
    and output_dir, or ConfigError names the conflicting key. Row i of
    patches.csv describes samples.npy[i]; its footprint is rebuilt from
    its transmitter, tilt and planar angle and the config's open angle,
    and its region center is that footprint's center. Columns besides
    PATCH_COLUMNS are ignored.

    manifest.txt is read first, and each file's bytes are checked before
    they are parsed. In this order, raises CorruptDatasetError when
    manifest.txt records no checksum of samples.npy, patches.csv or
    config.txt, or the latter two do not match theirs (so any changed
    byte of either is refused here); then ConfigError as above; then
    CorruptDatasetError when patches.csv does not decode as text, lacks a
    column, has a row count other than the patch_count manifest.txt
    records, or has a malformed row (the channel is not a configured
    channel, a station is not in the configured network, the tilt or
    planar angle is not finite, or the tilt makes no valid beam); and
    when the header of samples.npy is unreadable, is not the .npy 1.0
    C-order layout simulate_run writes, is not of a complex dtype (so
    nothing is unpickled) or does not give one (antenna, subcarrier) grid
    per row. The returned Dataset checks the samples as it reads them.
    """
    for name in ("patches.csv", "samples.npy", "config.txt", "manifest.txt"):
        if not (dataset / name).is_file():
            raise MissingDatasetError(f"no {name} in dataset {dataset}")
    recorded = _read_manifest(dataset / "manifest.txt")
    for name in ("samples.npy", "patches.csv", "config.txt"):
        checksum = recorded.get(f"checksum.{name}")
        if checksum is None:
            raise CorruptDatasetError(f"manifest.txt in {dataset} records no checksum of {name}")
        if name != "samples.npy" and checksum != _sha256(dataset / name):
            raise CorruptDatasetError(
                f"{name} in {dataset} does not match the checksum manifest.txt records"
            )
    pairs = zip(
        serialize_config(cfg).splitlines(),
        serialize_config(load_config(dataset / "config.txt")).splitlines(),
    )
    for given, simulated in pairs:
        if given != simulated and not given.startswith(("reconstruction.", "output_dir")):
            raise ConfigError(f"{given} conflicts with the dataset's {simulated}")
    try:
        header, table = read_table(dataset / "patches.csv")
    except UnicodeDecodeError as exc:
        raise CorruptDatasetError(
            f"patches.csv in {dataset} is not {exc.encoding} text (byte {exc.start})"
        ) from None
    missing = [name for name in PATCH_COLUMNS if name not in header]
    if missing:
        raise CorruptDatasetError(f"patches.csv in {dataset} has no column {missing}")
    if recorded.get("patch_count") != str(len(table)):
        raise CorruptDatasetError(
            f"patches.csv in {dataset} has {len(table)} rows; manifest.txt records "
            f"patch_count = {recorded.get('patch_count')}"
        )
    if not table:
        raise MissingDatasetError(f"dataset at {dataset} contains no patches")
    stations = {s.station_id: s for s in build_network(cfg)}
    network = f"a station of the {cfg.network.grid_side}x{cfg.network.grid_side} network"
    channels = cfg.schedule.channel_count
    open_angle = math.radians(cfg.beam.open_angle_deg)
    rows = []
    for line, row in enumerate(table, start=2):
        if len(row) != len(header):
            raise CorruptDatasetError(
                f"patches.csv line {line} has {len(row)} fields, not {len(header)}"
            )
        cells = dict(zip(header, row))
        channel = _cell(
            cells, line, "channel", int, lambda v: 0 <= v < channels,
            f"a channel in 0..{channels - 1}",
        )
        tx = _cell(cells, line, "tx_id", stations.get, bool, network)
        rx = _cell(cells, line, "rx_id", stations.get, bool, network)
        footprint = _footprint(cells, line, tx, open_angle)
        rows.append((tx, rx, channel_waveform(cfg, channel), footprint))
    expected = (len(rows), cfg.network.antenna_count, cfg.waveform.subcarrier_count)
    samples_header, dtype = _read_samples_header(dataset / "samples.npy", expected)
    return Dataset(dataset, rows, samples_header, dtype, recorded["checksum.samples.npy"])


def load_dataset(cfg: RunConfig, dataset: Path) -> list[MeasurementPatch]:
    """Every patch of a simulate_run dataset, checked as open_dataset and
    Dataset.patches check it.

    Each patch's samples are kept at the complex type samples.npy stores
    (simulate_run stores complex64), in an array of their own made of the
    very bytes that were hashed. Alignment widens each patch to
    complex128 as it multiplies it by its correction.
    """
    return list(open_dataset(cfg, dataset))


def _read_samples_header(path: Path, shape: tuple[int, int, int]) -> tuple[bytes, np.dtype]:
    """The bytes of samples.npy before its first sample, and its dtype.

    The header is parsed from those bytes alone, so a file of the wrong
    shape or of a non-complex dtype (an object array included) is
    rejected before any sample is read or memory is allocated for it, as
    is any layout but the .npy 1.0 C-order one ``_save_npy`` writes.
    """
    where = f"{path.name} in {path.parent}"
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise CorruptDatasetError(
                    f"{where} is a .npy {version[0]}.{version[1]} file, "
                    "not the .npy 1.0 C-order layout netsar writes"
                )
            stored, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:  # a truncated or garbled header
            raise CorruptDatasetError(f"{where}: {exc}") from None
        if fortran_order:
            raise CorruptDatasetError(
                f"{where} is Fortran-ordered, not the .npy 1.0 C-order layout netsar writes"
            )
        if not np.issubdtype(dtype, np.complexfloating):
            raise CorruptDatasetError(f"{where} holds {dtype} values, not complex samples")
        if stored != shape:
            raise CorruptDatasetError(
                f"{path.name} has shape {stored}; patches.csv and the config call for {shape}"
            )
        data_start = fh.tell()
        fh.seek(0)
        return fh.read(data_start), dtype


def _footprint(cells, line, tx, open_angle):
    """The footprint of the row's beam."""
    tilt = _cell(cells, line, "tilt", float, math.isfinite, "a finite number")
    planar = _cell(cells, line, "planar", float, math.isfinite, "a finite number")
    try:
        footprint = beam_footprint(tx, BeamSpec(open_angle, tilt, planar))
    except InvalidBeamError as exc:
        raise CorruptDatasetError(
            f"patches.csv line {line}, column tilt: {cells['tilt']!r} is not "
            f"a valid beam tilt ({exc})"
        ) from None
    return footprint


def _cell(cells, line, name, parse, valid, expected):
    """One patches.csv field, parsed and checked, or CorruptDatasetError."""
    try:
        value = parse(cells[name])
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise CorruptDatasetError(
            f"patches.csv line {line}, column {name}: {cells[name]!r} is not {expected}"
        )
    return value
