"""Seeded fuzz of the dataset checks: a dataset with one damaged file is
refused in one line, or reconstructs to the clean run's outputs.

Each trial damages one of the four files ``open_dataset`` reads in one of
three ways: one bit flipped, the file truncated at a random byte, or a
newline appended. Then ``netsar reconstruct`` (intersect, on the
dataset's own config.txt) either exits 1 with one line on stderr naming a
NetsarError subclass and makes no output directory, or writes an
estimates.csv and a report.txt byte-identical to the clean run's. Only
manifest.txt has bytes that no check reads (its skip counts, for one), so
damage to any other file is always refused; damage to config.txt as a
CorruptDatasetError, since its checksum is compared before it is parsed.
"""

import dataclasses

import numpy as np

import netsar.errors
from netsar.cli import main, simulate_run
from netsar.config import RunConfig

# criterion 10's small config
CFG = RunConfig(
    scene=dataclasses.replace(RunConfig().scene, extent_m=200.0),
    schedule=dataclasses.replace(RunConfig().schedule, slot_count=30),
)
SEED = 99
FILES = ("config.txt", "patches.csv", "samples.npy", "manifest.txt")
TRIALS = 40


def _damage(raw: bytes, rng) -> bytes:
    how = rng.integers(3)
    if how == 0:
        bit = int(rng.integers(8 * len(raw)))
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        return bytes(flipped)
    if how == 1:
        return raw[: rng.integers(len(raw))]
    return raw + b"\n"


def test_a_damaged_dataset_is_refused_in_one_line_or_reconstructs_unchanged(tmp_path, capsys):
    data = tmp_path / "data"
    simulate_run(CFG, data, SEED)

    def reconstruct(out):
        return main(["reconstruct", "--dataset", str(data), "--out", str(out)])

    assert reconstruct(tmp_path / "clean") == 0
    clean = {
        name: (tmp_path / "clean" / name).read_bytes() for name in ("estimates.csv", "report.txt")
    }
    capsys.readouterr()
    rng = np.random.default_rng(SEED)
    refused = {name: 0 for name in FILES}
    for trial in range(TRIALS):
        name = FILES[trial % len(FILES)]
        raw = (data / name).read_bytes()
        (data / name).write_bytes(_damage(raw, rng))
        out = tmp_path / f"trial{trial}"
        try:
            rc = reconstruct(out)
        finally:
            (data / name).write_bytes(raw)
        err = capsys.readouterr().err
        if rc == 0:
            assert name == "manifest.txt", (trial, name)
            for artifact, want in clean.items():
                assert (out / artifact).read_bytes() == want, (trial, name, artifact)
            continue
        assert rc == 1 and err.count("\n") == 1, (trial, name, err)
        kind = err.removeprefix("netsar: ").partition(":")[0]
        assert issubclass(getattr(netsar.errors, kind), netsar.errors.NetsarError), err
        if name == "config.txt":
            assert kind == "CorruptDatasetError", (trial, err)
        assert not out.exists(), (trial, name)
        refused[name] += 1
    assert refused["config.txt"] == refused["patches.csv"] == refused["samples.npy"] == 10
    assert refused["manifest.txt"] > 0
