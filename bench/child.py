"""One benchmark child process: set up and run a workload once.

Started by ``run.py`` with one JSON argument (the job) and answering
with one JSON line on stdout. Exit code 3 means netsar does not import
at all; the parent then aborts. Any other failure is an answer with
``"ok": false``, which the parent counts against the error rate.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

FATAL = 3
# A step of a second or less (the set-up build of imaging, intersect on
# crowded) spreads by a quarter from child to child, so an untraced child
# times the workload's "resample" step again after the timed pipeline, up
# to this many times in all, and reports each as a sample of its metric.
STEP_SAMPLES = 5


def run(job: dict) -> dict:
    """Set up, time the workload's pipeline once, then check and score it."""
    import numpy as np
    import scipy

    # called through the module, so that the tracer's wrappers are seen
    from netsar import cli

    import score
    from pace import time_reference
    from spans import Tracer
    from workloads import dataset_bytes, make_config

    spec, plan = job["spec"], job["plan"]
    work = Path(job["work"])
    dataset = work / "dataset"
    cfg = make_config(spec, plan)
    out = {
        "ok": False,
        "traced": job["trace"],
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    tracer = Tracer(job["run_id"]) if job["trace"] else None
    uninstall = tracer.install() if tracer else None

    def simulate() -> float:
        nonlocal recorded
        begin = time.perf_counter()
        recorded = cli.simulate_run(cfg, dataset, cfg.schedule.seed)
        return time.perf_counter() - begin

    def reconstruct() -> float:
        total = 0.0
        for algorithm in spec["algorithms"]:
            rcfg = make_config(spec, plan, algorithm)
            begin = time.perf_counter()
            cli.reconstruct_run(rcfg, dataset, work / algorithm, rcfg.schedule.seed)
            total += time.perf_counter() - begin
        return total

    recorded = None
    try:
        if spec["dataset_in_setup"]:
            out["simulate_s"] = [simulate()]
        out["setup_s"] = time.monotonic() - job["t_spawn"]
        reference = []
        time_reference(reference)

        start = time.perf_counter()
        if not spec["dataset_in_setup"]:
            out["simulate_s"] = [simulate()]
        out["reconstruct_s"] = [reconstruct()]
        out["wall_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if spec["resample"] and not tracer:
            step = {"simulate": simulate, "reconstruct": reconstruct}[spec["resample"]]
            taken = out[f"{spec['resample']}_s"]
            while len(taken) < STEP_SAMPLES:
                taken.append(step())
        time_reference(reference)
    except Exception:
        out["error"] = traceback.format_exc(limit=-3)
        return out
    finally:
        if uninstall:
            uninstall()
            tracer.dump(job["spans_path"])
            out["layers"] = tracer.layer_metrics()

    out["reference_s"] = reference
    out["patches"] = recorded
    out["dataset_mb"] = dataset_bytes(dataset) / 1e6
    problems = score.check_dataset(dataset, recorded, plan["patches"])
    for algorithm in spec["algorithms"]:
        problems += score.check_reconstruction(algorithm, work / algorithm)
    centers = score.truth_centers(cfg)
    scored = spec["scored"]
    try:
        estimates = score.estimates_for(scored, cfg, work / scored, len(centers))
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"scoring {scored}: {exc}")
    else:
        out["quality"] = score.score(centers, estimates)
        if out["quality"]["matched"] < plan["matched"]:
            problems.append(
                f"{scored} matched {out['quality']['matched']}/{len(centers)} "
                f"reflectors, the pinned plan expects at least {plan['matched']}"
            )
    out["problems"] = problems
    out["ok"] = not problems
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        import netsar.cli  # noqa: F401
    except ImportError as exc:
        print(json.dumps({"fatal": f"netsar does not import: {exc}"}))
        return FATAL
    try:
        answer = run(job)
    except Exception:
        answer = {"ok": False, "error": traceback.format_exc(limit=-3)}
    finally:
        shutil.rmtree(job["work"], ignore_errors=True)
    print(json.dumps(answer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
