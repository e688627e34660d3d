#!/usr/bin/env python3
"""Map the controllability time threshold over the admissible speed range.

Writes a CSV of (k, T_min) pairs and, for a few sample horizons, reports
which (k, T) combinations sit above the threshold.  Purely analytic; runs in
milliseconds.

Usage: python scripts/threshold_map.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from hierwave.geometry import check_admissible, min_control_time
from hierwave.grid import save_table_csv


def main(out_dir="runs/threshold_map"):
    out = Path(out_dir)
    ks = np.concatenate([[1e-4, 1e-3, 1e-2], np.arange(0.05, 0.85, 0.05)])
    rows = [(k, min_control_time(k)) for k in ks]
    save_table_csv(out / "threshold.csv", None, ["k", "T_min"], rows)
    print(f"{'k':>8}  {'T_min':>12}")
    for k, tmin in rows:
        print(f"{k:8.4f}  {tmin:12.5g}")

    print("\nadmissibility at sample horizons:")
    for T in (2.5, 4.0, 10.0, 100.0):
        admissible = [k for k, _ in rows if check_admissible(k, T).ok and not check_admissible(k, T).below_threshold]
        top = max(admissible) if admissible else float("nan")
        print(f"  T = {T:6.1f}: threshold satisfied up to k = {top:.2f}")
    print(f"\nwrote {out / 'threshold.csv'}")


if __name__ == "__main__":
    main(*sys.argv[1:])
