"""Workload definitions and the pinned inputs of each workload seed.

A workload fixes its problem size, not its slot count. With a sparse
scene the number of patches the simulator records varies threefold
between scene seeds, so each workload seed maps to a pinned plan in
``plans.json``: a scene seed, a schedule seed and a slot count, with the
number of patches netsar recorded for them and the number of true
reflectors the workload's scored algorithm matched when the plans were
pinned. Seed ``n`` uses entry ``n % len(plans)``; seed 1 is the ROADMAP
baseline (scene seed 1, schedule seed 12345, 200 slots).

The plans are data, not derived by running the code under test, so a
change that records a different number of patches or matches fewer
reflectors on the same inputs fails the output check instead of
silently moving the bench to other inputs. How they were chosen is
recorded in ``plans.json``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

PLANS = Path(__file__).resolve().parent / "plans.json"

# Why each workload was chosen is recorded in BENCHMARK.json.
# dataset_in_setup: the dataset is built once in set-up and only
# reconstruct_run is timed; otherwise simulate_run is part of the pipeline.
# resample: the short step an untraced child times again (child.py).
WORKLOADS = {
    "survey": {
        "scene": {},
        "dataset_in_setup": False,
        "resample": None,
        "algorithms": ["intersect", "procedure1", "isar"],
        "scored": "intersect",
    },
    "imaging": {
        "scene": {},
        "dataset_in_setup": True,
        "resample": "simulate",
        "algorithms": ["procedure2"],
        "scored": "procedure2",
    },
    "crowded": {
        "scene": {"reflector_count": 200},
        "dataset_in_setup": False,
        "resample": "reconstruct",
        "algorithms": ["intersect"],
        "scored": "intersect",
    },
}


def plan_for(name: str, seed: int) -> dict:
    """The pinned plan of a workload seed, with the outcome it must reach."""
    if seed < 0:
        raise ValueError("the workload seed must be nonnegative")
    plans = json.loads(PLANS.read_text())["workloads"][name]
    return dict(plans[seed % len(plans)])


def make_config(spec: dict, plan: dict, algorithm: str | None = None):
    """RunConfig of a workload for a plan (scene seed, schedule seed, slots).

    ``spec["scene"]`` overrides scene fields; the rest keep their defaults.
    """
    from netsar.config import RunConfig

    base = RunConfig()
    reconstruction = base.reconstruction
    if algorithm is not None:
        reconstruction = dataclasses.replace(reconstruction, algorithm=algorithm)
    return dataclasses.replace(
        base,
        scene=dataclasses.replace(base.scene, **spec["scene"], seed=plan["scene_seed"]),
        schedule=dataclasses.replace(
            base.schedule, seed=plan["schedule_seed"], slot_count=plan["slot_count"]
        ),
        reconstruction=reconstruction,
    )


def dataset_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
