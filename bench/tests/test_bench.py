"""Self-test of the benchmark harness on a tiny workload.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from child import STEP_SAMPLES  # noqa: E402
import score  # noqa: E402
from pace import PACED, REFERENCE_S, pace_factor  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, plan_for  # noqa: E402

# 100 m scene, a handful of slots: seconds end to end
TINY = {
    "scene": {"extent_m": 100.0, "reflector_count": 40},
    "dataset_in_setup": False,
    "resample": None,
    "algorithms": ["intersect"],
    "scored": "intersect",
}
TINY_PLAN = {
    "scene_seed": 1,
    "schedule_seed": 12345,
    "slot_count": 10,
    "patches": 8,
    "matched": 2,
}


def benchmark_json() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in LAYER_METRICS
    ]


@pytest.mark.parametrize(
    "dataset_in_setup, resample", [(False, "reconstruct"), (True, "simulate")]
)
def test_tiny_traced_run_emits_every_metric_with_its_unit(dataset_in_setup, resample):
    spec = dict(TINY, dataset_in_setup=dataset_in_setup, resample=resample)
    summary = bench.run_workload("tiny", spec, TINY_PLAN, seed=1, seconds=0, trace=True)
    # two untraced children, each timing the resampled step STEP_SAMPLES times
    assert summary["measured"][f"{resample}_s"]["n"] == 2 * STEP_SAMPLES
    assert summary["attempted"] == 3 and summary["failed"] == 0, summary["errors"]
    assert summary["error_rate"] == 0.0
    assert summary["patches"] == TINY_PLAN["patches"]
    assert summary["quality"]["matched"] == TINY_PLAN["matched"]

    untraced = bench.result_line(summary, trace=False)
    assert untraced["correct"] and untraced["attempted"] == 3
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == dict(bench.END_TO_END)
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    for name in PACED:
        assert untraced["metrics"][name]["value"] == pytest.approx(
            summary["measured"][name]["median"] * summary["pace"]
        )

    traced = bench.result_line(summary, trace=True)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        name: unit for name, unit, _ in LAYER_METRICS
    }
    value = {k: v["value"] for k, v in traced["metrics"].items()}
    synth = "forward.synthesize_measurement"
    assert value[f"{synth}.calls"] == (
        value[f"{synth}.recorded"] + value[f"{synth}.dark"] + value[f"{synth}.outside_scene"]
    )
    assert value[f"{synth}.recorded"] == summary["patches"]
    assert value["cli.simulate_run.self_s"] > 0


def test_a_run_that_raises_counts_in_the_error_rate():
    # the 3d algorithm refuses height_plane_count 0, the default
    failing = dict(TINY, algorithms=["3d"])
    summary = bench.run_workload("failing", failing, TINY_PLAN, seed=1, seconds=0, trace=False)
    assert summary["attempted"] == 3 and summary["failed"] == 3
    assert summary["error_rate"] == 1.0
    assert "height_plane_count" in summary["errors"][0]
    assert bench.result_line(summary, trace=False) is None


def test_outputs_that_differ_from_the_pinned_plan_fail_the_check():
    plan = dict(TINY_PLAN, patches=TINY_PLAN["patches"] + 1, matched=TINY_PLAN["matched"] + 1)
    summary = bench.run_workload("tiny", TINY, plan, seed=1, seconds=0, trace=False)
    assert summary["failed"] == summary["attempted"] == 3
    problems = " ".join(summary["errors"][0])
    assert "recorded 8 patches" in problems and "matched 2/40" in problems


def test_traced_children_whose_counts_differ_fail():
    counts = {name: 1 for name, unit, _ in LAYER_METRICS if unit != "s"}
    first = {"ok": True, "layers": dict(counts)}
    same = {"ok": True, "layers": dict(counts)}
    name = "forward.synthesize_measurement.calls"
    other = {"ok": True, "layers": dict(counts, **{name: 2})}
    bench.disagreeing_counts([first, same, other])
    assert first["ok"] and same["ok"] and not other["ok"]
    assert name in other["problems"][0]


def test_a_seed_picks_the_same_pinned_plan_every_time():
    survey = plan_for("survey", 1)
    assert (survey["scene_seed"], survey["schedule_seed"], survey["slot_count"]) == (1, 12345, 200)
    assert (survey["patches"], survey["matched"]) == (113, 10)
    plans = json.loads((BENCH / "plans.json").read_text())["workloads"]
    assert set(plans) == set(WORKLOADS)
    for name, table in plans.items():
        assert plan_for(name, 7) == plan_for(name, 7 + len(table)) == table[7]


def test_scorer_matches_truth_exactly_and_nothing_without_estimates():
    centers = np.array([[10.0, -20.0], [55.5, 3.25], [-100.0, 80.0]])
    perfect = score.score(centers, centers.copy())
    assert perfect["matched_frac"] == 1.0
    assert perfect["false_detections"] == 0
    assert perfect["mean_error_m"] == 0.0
    none = score.score(centers, np.zeros((0, 2)))
    assert none["matched_frac"] == 0.0
    assert none["false_detections"] == 0
    shifted = score.score(centers, centers + [[6.0, 0.0]])
    assert shifted["matched_frac"] == 0.0 and shifted["false_detections"] == 3


def test_peak_picking_reads_fused_pgm_coordinates(tmp_path):
    from netsar.imageio import read_pgm, write_pgm

    spacing, n = 0.5, 200
    field = np.zeros((n, n))
    truth = np.array([[12.0, -7.5], [-30.0, 20.0]])
    for (x, y), height in zip(truth, (1.0, 0.6)):
        i, j = int(round(x / spacing)) + n // 2, int(round(y / spacing)) + n // 2
        field[i - 1 : i + 2, j - 1 : j + 2] = 0.5 * height
        field[i, j] = height
    write_pgm(field, tmp_path / "fused.pgm")
    peaks = score.pick_peaks(read_pgm(tmp_path / "fused.pgm"), spacing, 5, 5.0)
    assert len(peaks) == 2  # the suppressed shoulders are not peaks
    np.testing.assert_allclose(peaks, truth)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert "tail" not in bench.spread([1.0] * 10)
    t = bench.spread([float(v) for v in range(20)])
    assert t["median"] == 9.5 and t["n"] == 20
    assert t["tail_pct"] == 50 and t["tail"] == 9.0


def test_the_reference_pace_scales_by_the_median_reference_time():
    assert pace_factor([REFERENCE_S] * 3) == 1.0
    # a host running at half speed halves every measured time
    assert pace_factor([REFERENCE_S, 2 * REFERENCE_S, 9.0]) == 0.5
