import numpy as np
import pytest

from netsar.geometry import GroundPoint
from netsar.imageio import read_table, write_pgm
from netsar.scene import (
    ReflectorSpec,
    Scene,
    random_reflector_scene,
    scene_from_csv,
    scene_to_csv,
    set_height_profile,
)


def test_reflector_spec_validation():
    with pytest.raises(ValueError):
        ReflectorSpec(center=GroundPoint(0, 0), side=-1.0)
    with pytest.raises(ValueError):
        ReflectorSpec(center=GroundPoint(0, 0), side=1.0, magnitude=-0.5)


def test_scene_shape_checked():
    with pytest.raises(ValueError):
        Scene(extent=(10.0, 10.0), resolution=1.0, reflectivity=np.zeros((5, 5), complex))


def test_pixel_centers_cover_extent():
    scene = random_reflector_scene((20.0, 10.0), 0, 1.0, seed=0)
    xs, ys = scene.pixel_centers()
    assert xs[0] == -9.5 and xs[-1] == 9.5
    assert ys[0] == -4.5 and ys[-1] == 4.5


def test_random_scene_deterministic():
    a = random_reflector_scene((100.0, 100.0), 5, 4.0, seed=42)
    b = random_reflector_scene((100.0, 100.0), 5, 4.0, seed=42)
    assert np.array_equal(a.reflectivity, b.reflectivity)
    c = random_reflector_scene((100.0, 100.0), 5, 4.0, seed=43)
    assert not np.array_equal(a.reflectivity, c.reflectivity)


def test_reflectors_fully_inside_and_unit_magnitude():
    scene = random_reflector_scene((60.0, 60.0), 8, 6.0, seed=1)
    for ref in scene.reflectors:
        assert abs(ref.center.x) <= 30.0 - 3.0 + 1e-9
        assert abs(ref.center.y) <= 30.0 - 3.0 + 1e-9
    mags = np.abs(scene.reflectivity)
    nonzero = mags[mags > 0]
    assert np.allclose(nonzero, 1.0)
    # phases are spread, not constant
    phases = np.angle(scene.reflectivity[mags > 0])
    assert phases.std() > 0.5


def test_background_is_dark():
    scene = random_reflector_scene((100.0, 100.0), 2, 4.0, seed=3)
    frac = np.count_nonzero(scene.reflectivity) / scene.reflectivity.size
    assert frac < 0.02


def test_height_profile_max_rule():
    scene = random_reflector_scene((20.0, 20.0), 0, 1.0, seed=0)
    refs = [
        ReflectorSpec(center=GroundPoint(0.0, 0.0), side=4.0, height=5.0),
        ReflectorSpec(center=GroundPoint(1.0, 0.0), side=4.0, height=9.0),
    ]
    tall = set_height_profile(scene, refs)
    assert tall.height.max() == 9.0
    # overlap region takes the taller reflector
    xs, ys = tall.pixel_centers()
    ix = np.argmin(np.abs(xs - 0.5))
    iy = np.argmin(np.abs(ys))
    assert tall.height[ix, iy] == 9.0


def test_csv_round_trip(tmp_path):
    # magnitude 0 leaves only the heights nonzero: they must still be written
    for magnitude in (1.0, 0.0):
        scene = random_reflector_scene((12.0, 12.0), 2, 3.0, seed=9, magnitude=magnitude)
        scene = set_height_profile(
            scene,
            [ReflectorSpec(center=r.center, side=r.side, height=2.5) for r in scene.reflectors],
        )
        path = tmp_path / "scene.csv"
        scene_to_csv(scene, path)
        lit = (scene.reflectivity != 0) | (scene.height != 0)
        assert len(read_table(path)[1]) == np.count_nonzero(lit) > 0
        back = scene_from_csv(path, (12.0, 12.0), 1.0)
        assert np.array_equal(back.reflectivity, scene.reflectivity)
        assert np.array_equal(back.height, scene.height)


def test_pgm_preview_written(tmp_path):
    scene = random_reflector_scene((16.0, 16.0), 1, 4.0, seed=5)
    path = tmp_path / "scene.pgm"
    write_pgm(np.abs(scene.reflectivity), path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n16 16\n255\n")
    assert max(data[-256:]) == 255
