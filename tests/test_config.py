import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from netsar.config import (
    BeamConfig,
    ReconstructionConfig,
    RunConfig,
    ScheduleConfig,
    SceneConfig,
    load_config,
    parse_config,
    save_config,
    serialize_config,
)
from netsar.errors import ConfigError


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.reconstruction.algorithm == "intersect"
    assert cfg.waveform.subcarrier_count == 256


def test_round_trip_is_idempotent():
    cfg = RunConfig()
    text = serialize_config(cfg)
    again = serialize_config(parse_config(text))
    assert text == again
    assert parse_config(text) == cfg


def test_float_values_survive_exactly():
    cfg = RunConfig(
        beam=BeamConfig(open_angle_deg=9.999999999999998, aim_radius_m=120.0)
    )
    back = parse_config(serialize_config(cfg))
    assert back.beam.open_angle_deg == 9.999999999999998


def test_validation_names_offending_field():
    with pytest.raises(ConfigError, match="scene.extent_m"):
        RunConfig(scene=SceneConfig(extent_m=-1.0))
    with pytest.raises(ConfigError, match="schedule.transmit_probability"):
        RunConfig(schedule=ScheduleConfig(transmit_probability=1.5))
    with pytest.raises(ConfigError, match="reconstruction.algorithm"):
        RunConfig(reconstruction=ReconstructionConfig(algorithm="magic"))
    with pytest.raises(ConfigError, match="height_plane_count"):
        RunConfig(reconstruction=ReconstructionConfig(height_plane_count=2))
    # the 3d algorithm needs its planes when the config is built
    with pytest.raises(ConfigError, match="reconstruction.height_plane_count"):
        RunConfig(reconstruction=ReconstructionConfig(algorithm="3d"))


def test_parse_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("not an assignment")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("nosuch.key = 1")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("scene.nosuch = 1")
    # reconstruction tuning values are literals in the code, not keys
    for key in ("spectrum_half_size", "pad_factor", "peak_threshold_db",
                "cluster_radius_m", "min_support", "min_crossing_sine",
                "height_step_rad_per_m"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(f"reconstruction.{key} = 1")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("scene.extent_m = banana")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nscene.extent_m = 100.0  # trailing\n")
    assert cfg.scene.extent_m == 100.0
    # unspecified keys take defaults
    assert cfg.scene.resolution_m == 1.0


def test_output_dir_top_level():
    cfg = parse_config("output_dir = results/run1\n")
    assert cfg.output_dir == "results/run1"
    assert "output_dir = results/run1" in serialize_config(cfg)


def test_load_config_errors_name_the_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("scene.extent_m = 100.0\nreconstruction.pad_factor = 2\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: line 2: unknown key 'reconstruction.pad_factor'"


def test_save_and_load(tmp_path):
    cfg = RunConfig(output_dir="elsewhere")
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


@settings(max_examples=30, deadline=None)
@given(
    st.floats(4.0, 1e4, allow_nan=False),  # >= default reflector side
    st.integers(1, 512),
    st.floats(0.0, 1.0),
)
def test_round_trip_property(extent, count, prob):
    cfg = RunConfig(
        scene=SceneConfig(extent_m=extent),
        schedule=ScheduleConfig(transmit_probability=prob),
        waveform=dataclasses.replace(RunConfig().waveform, subcarrier_count=count),
    )
    assert parse_config(serialize_config(cfg)) == cfg
