"""The experiment scripts under scripts/, each run as a program."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_threshold_map_writes_a_readable_table(tmp_path):
    done = run_script("threshold_map.py", tmp_path)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "threshold.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "T_min"] and rows[1][0] == "0.0001"
    t_min = [float(t) for _, t in rows[1:]]
    assert t_min == sorted(t_min) and t_min[0] > 2.0


def test_run_manufactured_reaches_both_balls(tmp_path):
    done = run_script("run_manufactured.py", tmp_path, 16)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "report.json").read_text())["reached"] == [True, True]
