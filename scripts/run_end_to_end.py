"""End-to-end experiment: simulate a network run, localize, score.

Simulates the slotted measurement loop with the configured network,
runs range-line-intersection localization, and scores the estimates
against the generated ground truth (match = nearest estimate within
the match radius). Artifacts land under --out; the summary prints to
stdout.

Usage:
    python3 scripts/run_end_to_end.py --out out/e2e --seed 12345
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netsar.cli import build_scene, reconstruct_run, simulate_run
from netsar.config import RunConfig, load_config
from netsar.imageio import read_table


def score(cfg: RunConfig, out: Path, match_radius: float):
    truth = build_scene(cfg)
    centers = [r.center.horizontal() for r in truth.reflectors]
    _, rows = read_table(out / "estimates.csv")
    est = np.array([[float(r[0]), float(r[1])] for r in rows]).reshape(-1, 2)

    print(f"{'true reflector':>22}  {'nearest estimate':>22}  {'error m':>8}")
    matched = 0
    for c in centers:
        if est.size == 0:
            print(f"({c[0]:8.2f},{c[1]:8.2f})  {'--':>22}  {'--':>8}")
            continue
        d = np.linalg.norm(est - c[None, :], axis=1)
        j = int(np.argmin(d))
        ok = d[j] < match_radius
        matched += ok
        flag = "" if ok else "  MISS"
        print(
            f"({c[0]:8.2f},{c[1]:8.2f})  ({est[j, 0]:8.2f},{est[j, 1]:8.2f})"
            f"  {d[j]:8.2f}{flag}"
        )
    extras = sum(
        1 for e in est if min(np.linalg.norm(e - c) for c in centers) >= match_radius
    )
    print(
        f"\nmatched {matched}/{len(centers)} reflectors within {match_radius} m, "
        f"{extras} unmatched detections out of {len(est)}"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path, default=None)
    ap.add_argument("--out", type=Path, default=Path("out/e2e"))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--match-radius", type=float, default=5.0)
    args = ap.parse_args()

    cfg = load_config(args.config) if args.config else RunConfig()
    seed = args.seed if args.seed is not None else cfg.schedule.seed

    data = args.out / "dataset"
    rec = args.out / "reconstruction"
    n = simulate_run(cfg, data, seed)
    print(f"simulated {n} patches -> {data}")
    reconstruct_run(cfg, data, rec, seed)
    print(f"reconstruction artifacts -> {rec}\n")
    score(cfg, rec, args.match_radius)


if __name__ == "__main__":
    main()
