"""netsar benchmark: time the simulate/reconstruct pipeline end to end.

Usage (from the repository root):

    python3 bench/run.py [--workload survey|imaging|crowded|all] [--seed N]
                         [--seconds S] [--trace 0|1]

The seed picks the workload's pinned inputs (see ``workloads.py``).
Fresh child processes, one at a time, each set up and run the workload's
pipeline once through ``netsar.cli.simulate_run`` and
``netsar.cli.reconstruct_run``, until ``--seconds`` have passed and at
least three children have run. Each child checks its outputs and scores
them against the ground truth: the recorded patches must equal the
plan's and the matched reflectors reach it. BLAS and OpenMP threads are
capped at the processor count.

With ``--trace 0`` the end-to-end metrics are medians over the samples
of the untraced children (a child times its workload's short step
several times, see ``child.py``), with set-up and pipeline times at the
reference pace of ``pace.py``: scaled by how fast a fixed reference
workload ran in the same children. With ``--trace 1`` untraced and
traced children alternate; the per-layer metrics are medians over the
traced ones, whose spans are written under ``.bench_run/``; every traced
child must report the same counts. Quality (matched fraction, false
detections, mean error) and the error rate are reported and stored but
are not JSON metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (with
``all``, one such object per workload). The exit code is 0 only when
every workload completed its pipeline at least once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
sys.path.insert(0, str(BENCH))

from pace import PACED, pace_factor  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, plan_for  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("simulate_s", "s"),
    ("reconstruct_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dataset_mb", "MB"),
]
# Every child must end inside the 180 s a benchmark run may take.
RUN_DEADLINE_S = 170.0
# A median of fewer samples is one slow child away from an outlier; in a
# traced run three children are two untraced and one traced.
MIN_CHILDREN = 3


class BenchError(RuntimeError):
    """The benchmark cannot measure anything: no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # every child compiles netsar afresh, so set-up does not depend on
    # whether an earlier run left bytecode behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def spawn(job: dict, timeout: float) -> dict:
    """Run one child to completion and return its JSON answer."""
    job = dict(job, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"child exceeded {timeout:.0f} s and was killed"}
    lines = proc.stdout.strip().splitlines()
    try:
        answer = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        answer = {"ok": False, "error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    if "fatal" in answer:
        raise BenchError(answer["fatal"])
    return answer


def spread(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "samples": values}
    if n >= 11:
        out["tail_pct"] = math.floor(100 * (n - 10) / n)
        out["tail"] = ordered[n - 11]
    return out


def samples(answers: list[dict], metric: str) -> list[float]:
    """Every sample of a metric; a child may time a step several times."""
    return [
        v for a in answers for v in (a[metric] if isinstance(a[metric], list) else [a[metric]])
    ]


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def disagreeing_counts(traced: list[dict]) -> None:
    """Fail each traced child whose counts differ from the first one's.

    Counts (every per-layer metric that is not a time) depend only on the
    inputs, so they must repeat exactly from child to child.
    """
    counts = [name for name, unit, _ in LAYER_METRICS if unit != "s"]
    for answer in traced[1:]:
        differ = [m for m in counts if answer["layers"][m] != traced[0]["layers"][m]]
        if differ:
            answer["ok"] = False
            answer["problems"] = [
                "traced counts differ from the first traced child: " + ", ".join(differ)
            ]


def run_workload(
    name: str, spec: dict, plan: dict, seed: int, seconds: float, trace: bool
) -> dict:
    """Run children until ``seconds`` pass; aggregate their answers."""
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    run_id = uuid.uuid4().hex
    for stale in WORK.glob(f"{tag}-spans*.jsonl"):
        stale.unlink()
    answers = []
    while True:
        traced = trace and len(answers) % 2 == 1
        job = {
            "spec": spec,
            "plan": plan,
            "trace": traced,
            "run_id": run_id,
            "work": str(WORK / f"{tag}-child"),
            "spans_path": str(WORK / f"{tag}-spans{len(answers)}.jsonl"),
        }
        left = RUN_DEADLINE_S - (time.monotonic() - started)
        answers.append(spawn(job, max(left, 1.0)))
        enough = len(answers) >= MIN_CHILDREN and time.monotonic() - started >= seconds
        if enough or time.monotonic() - started > RUN_DEADLINE_S / 2:
            break

    disagreeing_counts([a for a in answers if a["ok"] and a["traced"]])
    ok = [a for a in answers if a["ok"]]
    untraced = [a for a in ok if not a["traced"]]
    traced_ok = [a for a in ok if a["traced"]]
    summary = {
        "workload": name,
        "seed": seed,
        "run_id": run_id,
        "plan": plan,
        "attempted": len(answers),
        "failed": len(answers) - len(ok),
        "errors": [a.get("error") or a.get("problems") for a in answers if not a["ok"]],
        "metadata": {
            "src_lines": src_lines(),
            "nproc": nproc(),
            "blas_threads": nproc(),
            "python": platform.python_version(),
            "workload_seed": seed,
            **(answers[0].get("versions") or {}),
        },
    }
    summary["error_rate"] = summary["failed"] / summary["attempted"]
    if ok:
        references = [t for a in ok for t in a["reference_s"]]
        summary["reference_s"] = spread(references)
        summary["pace"] = pace_factor(references)
    # end-to-end timings at the reference pace; "measured" keeps them raw
    summary["measured"] = {
        metric: spread(samples(untraced, metric)) for metric in PACED if untraced
    }
    summary["timings"] = {
        metric: spread(
            [v * (summary["pace"] if metric in PACED else 1.0) for v in samples(untraced, metric)]
        )
        for metric, _ in END_TO_END
        if untraced
    }
    if ok:
        summary["quality"] = ok[0]["quality"]
        summary["patches"] = ok[0]["patches"]
    if traced_ok:
        layers = {
            metric: statistics.median(a["layers"][metric] for a in traced_ok)
            for metric, _, _ in LAYER_METRICS
            if metric != "trace.overhead_s"
        }
        if untraced:
            layers["trace.overhead_s"] = summary["pace"] * (
                statistics.median(a["wall_s"] for a in traced_ok)
                - summary["measured"]["wall_s"]["median"]
            )
        summary["layers"] = layers
        summary["traced_reconstruct_s"] = statistics.median(
            samples(traced_ok, "reconstruct_s")
        )
    return summary


def result_line(summary: dict, trace: bool) -> dict | None:
    """The closing JSON line (correct, attempted, failed, metrics).

    None when no child completed the pipeline.
    """
    if trace:
        if "trace.overhead_s" not in summary.get("layers", {}):
            return None
        metrics = {
            name: {"value": summary["layers"][name], "unit": unit}
            for name, unit, _ in LAYER_METRICS
        }
    else:
        if not summary["timings"]:
            return None
        metrics = {
            name: {"value": summary["timings"][name]["median"], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def report(summary: dict) -> None:
    plan = summary["plan"]
    print(
        f"== {summary['workload']}  seed {summary['seed']}: scene seed "
        f"{plan['scene_seed']}, schedule seed {plan['schedule_seed']}, "
        f"{plan['slot_count']} slots, {plan['patches']} patches, "
        f"at least {plan['matched']} reflectors matched"
    )
    print("   " + "  ".join(f"{k}={v}" for k, v in summary["metadata"].items()))
    if "pace" in summary:
        print(
            f"   reference workload median {summary['reference_s']['median']:.4f} s "
            f"(n={summary['reference_s']['n']}): timings scaled by {summary['pace']:.4f}"
        )
    for name, unit in END_TO_END:
        t = summary["timings"].get(name)
        if t is None:
            continue
        tail = (
            f"p{t['tail_pct']} {t['tail']:.4f}" if "tail" in t else "p-- (n<11)"
        )
        measured = summary["measured"].get(name)
        raw = f"measured {measured['median']:.4f}" if measured else ""
        print(
            f"   {name:<18} median {t['median']:10.4f} {unit:<6} {tail:<18} n={t['n']:<4} {raw}"
        )
    quality = summary.get("quality")
    if quality:
        print(
            f"   {'matched_frac':<18} {quality['matched_frac']:.4f} ratio "
            f"({quality['matched']}/{quality['reflectors']} within 5 m)"
        )
        print(f"   {'false_detections':<18} {quality['false_detections']} count "
              f"(of {quality['estimates']} estimates)")
        print(f"   {'mean_error_m':<18} {quality['mean_error_m']:.4f} m")
    print(
        f"   {'error_rate':<18} {summary['error_rate']:.4f} ratio "
        f"({summary['failed']}/{summary['attempted']} runs failed)"
    )
    for error in summary["errors"]:
        print(f"   failure: {error}")
    if "layers" in summary:
        print(f"   per layer, traced children (reconstruct_s "
              f"{summary['traced_reconstruct_s']:.4f} s with tracing):")
    for name, unit, moves in LAYER_METRICS:
        if name in summary.get("layers", {}):
            print(f"   {name:<46} {summary['layers'][name]:>14.6g} {unit:<13} -> {moves}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (ROOT / "src" / "netsar" / "cli.py").is_file():
        print(f"no netsar source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = {}
    for name in names:
        try:
            summary = run_workload(
                name,
                WORKLOADS[name],
                plan_for(name, args.seed),
                args.seed,
                args.seconds,
                bool(args.trace),
            )
        except BenchError as exc:
            print(f"benchmark cannot run {name}: {exc}", file=sys.stderr)
            return 2
        report(summary)
        (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=1)
        )
        line = result_line(summary, bool(args.trace))
        if line is None:
            print(f"no run of {name} completed its pipeline", file=sys.stderr)
            return 1
        results[name] = line
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
