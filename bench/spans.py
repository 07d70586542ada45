"""Span recorder for the traced run, and the per-layer metrics it yields.

Tracing wraps public functions of the netsar layers from outside: the
wrapper replaces the function in its defining module and in every other
netsar module that imported it by name (``cli`` imports most of them
that way), so calls from either path are seen. Each call records a span
(name, start, end, parent span) under the run's id; counts are taken in
the same wrapper, from the arguments, the return value or the exception.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _argument(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_synthesis(counts, args, kwargs, result, exc):
    from netsar.errors import EmptyFootprintError

    if isinstance(exc, EmptyFootprintError):
        counts["forward.synthesize_measurement.outside_scene"] += 1
    elif result is not None:
        lit = bool(result.samples.any())
        counts["forward.synthesize_measurement.recorded"] += lit
        counts["forward.synthesize_measurement.dark"] += not lit


def _count_scene_csv(counts, args, kwargs, result, exc):
    import os

    if exc is None:
        path = _argument(args, kwargs, 1, "path")
        counts["scene.scene_to_csv.bytes"] += os.path.getsize(path)


def _count_intersect(counts, args, kwargs, result, exc):
    if exc is None:
        diag = result[1]
        counts["reconstruct.intersect_lines.intersections"] += diag.intersections
        counts["reconstruct.intersect_lines.clusters"] += diag.clusters


def _count_fusion(counts, args, kwargs, result, exc):
    if exc is None:
        images = _argument(args, kwargs, 0, "images")
        counts["reconstruct.fuse_images.pixels_sampled"] += (
            len(images) * result.magnitude.size
        )


def _count_sensing_tensor(counts, args, kwargs, result, exc):
    # computed from the shapes: K samples x M^3 voxels of complex128
    samples = _argument(args, kwargs, 0, "samples")
    grid = _argument(args, kwargs, 1, "grid")
    counts["isar.build_sensing_tensor.bytes"] += len(samples) * grid.M_side**3 * 16


def _count_inversion(counts, args, kwargs, result, exc):
    if exc is not None:
        return
    k, n = _argument(args, kwargs, 0, "tensor").shape
    rank = result[1]
    counts["isar.invert_sensing_tensor.rank"] += rank
    # computed, in real flops: thin complex SVD by R-SVD (Golub & Van Loan,
    # 6kn^2 + 20n^3 complex flops, 4 real each), then the rank-r
    # pseudo-inverse product and its application (8 real flops per
    # complex multiply-add)
    counts["isar.invert_sensing_tensor.flops"] += (
        4 * (6 * k * n * n + 20 * n**3) + 8 * n * rank * k + 8 * n * k
    )


# (module, function, counter) for every wrapped public function
WRAPPED = [
    ("geometry", "beam_footprint", None),
    ("scene", "random_reflector_scene", None),
    ("scene", "scene_to_csv", _count_scene_csv),
    ("forward", "synthesize_measurement", _count_synthesis),
    ("cli", "simulate_run", None),
    ("cli", "reconstruct_run", None),
    ("cli", "load_dataset", None),
    ("cli", "write_manifest", None),
    ("patches", "align_and_place", None),
    ("patches", "align_distance", None),
    ("reconstruct", "range_profiles", None),
    ("reconstruct", "intersect_lines", _count_intersect),
    ("reconstruct", "procedure2_per_patch", None),
    ("reconstruct", "fuse_images", _count_fusion),
    ("reconstruct", "procedure1_invert", None),
    ("isar", "build_sensing_tensor", _count_sensing_tensor),
    ("isar", "invert_sensing_tensor", _count_inversion),
    ("isar", "voxel_grid_to_csv", None),
    ("imageio", "write_pgm", None),
    ("imageio", "write_table", None),
]

# Per-layer metrics: name, unit, and the end-to-end metric and workloads
# a change to that layer should move.
LAYER_METRICS = [
    ("geometry.beam_footprint.calls", "count", "simulate_s on survey, crowded"),
    ("scene.random_reflector_scene.self_s", "s", "simulate_s on crowded"),
    ("scene.scene_to_csv.self_s", "s",
     "simulate_s on survey, crowded; setup_s on imaging"),
    ("scene.scene_to_csv.bytes", "B",
     "dataset_mb, simulate_s on survey, crowded; setup_s on imaging"),
    ("forward.synthesize_measurement.calls", "count",
     "simulate_s on survey (culling), crowded (kernel)"),
    ("forward.synthesize_measurement.self_s", "s",
     "simulate_s on survey (culling), crowded (kernel)"),
    ("forward.synthesize_measurement.recorded", "count", "simulate_s on survey, crowded"),
    ("forward.synthesize_measurement.dark", "count", "simulate_s on survey (culling)"),
    ("forward.synthesize_measurement.outside_scene", "count",
     "simulate_s on survey (culling)"),
    ("forward.synthesize_measurement.useful_ratio", "ratio",
     "simulate_s on survey (culling)"),
    ("cli.simulate_run.self_s", "s", "simulate_s on all three"),
    ("cli.reconstruct_run.self_s", "s", "reconstruct_s on all three"),
    ("cli.load_dataset.self_s", "s", "reconstruct_s on all three"),
    ("cli.write_manifest.self_s", "s", "simulate_s, reconstruct_s on all three"),
    ("patches.align_and_place.calls", "count", "reconstruct_s, most on crowded"),
    ("patches.align_and_place.self_s", "s", "reconstruct_s, most on crowded"),
    ("patches.align_distance.self_s", "s", "reconstruct_s, most on crowded"),
    ("reconstruct.range_profiles.self_s", "s", "reconstruct_s on crowded"),
    ("reconstruct.intersect_lines.self_s", "s", "reconstruct_s on crowded"),
    ("reconstruct.intersect_lines.intersections", "count", "reconstruct_s on crowded"),
    ("reconstruct.intersect_lines.clusters", "count", "reconstruct_s on crowded"),
    ("reconstruct.procedure2_per_patch.calls", "count", "reconstruct_s on imaging"),
    ("reconstruct.procedure2_per_patch.self_s", "s", "reconstruct_s on imaging"),
    ("reconstruct.fuse_images.self_s", "s", "reconstruct_s, peak_rss_mb on imaging"),
    ("reconstruct.fuse_images.pixels_sampled", "count",
     "reconstruct_s, peak_rss_mb on imaging"),
    ("reconstruct.procedure1_invert.self_s", "s", "reconstruct_s on survey"),
    ("isar.build_sensing_tensor.self_s", "s", "reconstruct_s on survey"),
    ("isar.build_sensing_tensor.bytes", "B_computed", "reconstruct_s on survey"),
    ("isar.invert_sensing_tensor.self_s", "s", "reconstruct_s on survey"),
    ("isar.invert_sensing_tensor.rank", "count", "reconstruct_s on survey"),
    ("isar.invert_sensing_tensor.flops", "flop_computed", "reconstruct_s on survey"),
    ("imageio.write_pgm.self_s", "s", "reconstruct_s on imaging, survey"),
    ("imageio.write_table.self_s", "s", "reconstruct_s on imaging, survey"),
    ("isar.voxel_grid_to_csv.self_s", "s", "reconstruct_s on survey"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced wall_s"),
]


class Tracer:
    """In-memory spans of one run, plus counts taken at the same wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "run": self.run_id,
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                if counter is not None:
                    counter(self.counts, args, kwargs, result, exc)

        return traced

    def install(self):
        """Wrap every function in WRAPPED; returns a callable that undoes it."""
        undo = []
        for module, func, counter in WRAPPED:
            original = getattr(sys.modules[f"netsar.{module}"], func)
            wrapper = self.wrap(f"{module}.{func}", original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("netsar") and getattr(mod, func, None) is original:
                    setattr(mod, func, wrapper)
                    undo.append((mod, func, original))

        def uninstall():
            for mod, func, original in undo:
                setattr(mod, func, original)

        return uninstall

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls in one thread nest, so children never overlap.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            entry = totals[span["name"]]
            entry[0] += 1
            entry[1] += span["end"] - span["start"] - child_time[span["id"]]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS entry except trace.overhead_s (set by the parent).

        A layer the workload never calls reads 0.
        """
        times = self.self_times()
        values = {}
        for name, _, _ in LAYER_METRICS:
            if name == "trace.overhead_s":
                continue
            layer, _, kind = name.rpartition(".")
            calls, self_s = times.get(layer, (0, 0.0))
            if kind == "self_s":
                values[name] = self_s
            elif kind == "calls":
                values[name] = calls
            else:
                values[name] = self.counts.get(name, 0)
        synth = values["forward.synthesize_measurement.calls"]
        values["forward.synthesize_measurement.useful_ratio"] = (
            values["forward.synthesize_measurement.recorded"] / synth if synth else 0.0
        )
        return values

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
