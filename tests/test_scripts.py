"""The experiment scripts under scripts/, each run as a program."""

import ast
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
    lines = done.stdout.splitlines()
    assert any(line.startswith("H build (boundary response)") for line in lines)
    assert lines[-1].startswith("peak RSS ") and lines[-1].endswith(" MB")


def test_bench_hbuild_times_one_build_per_run(tmp_path):
    done = run_script("bench_hbuild.py", "--tag", "t", "--ny", "16", "--runs", 1, "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_t.json").read_text())
    (row,) = result["grids"]["16"]["runs"]
    assert row["hbuild_count"] == 1 and 0.0 < row["hbuild_s"] < row["wall_s"]
    assert row["iterations"] >= 1 and row["peak_rss_mb"] > 0.0


def test_replay_outputs_runs_every_gated_op_cleanly(tmp_path):
    """The seed-7 replay of the benchmark's gated plans exits 0 on every op;
    the benchmark counts any other exit as a failed op."""
    done = run_script("replay_outputs.py", "--out", tmp_path / "replay", "--seed", 7)
    assert done.returncode == 0, done.stderr
    codes = json.loads((tmp_path / "replay" / "exit_codes.json").read_text())
    failed = {f"{w}/{op}": c for w, ops in codes.items() for op, c in ops.items() if c != 0}
    assert codes and not failed


def test_profile_ops_times_every_stage(tmp_path):
    """One pass of profile_ops.py on leader-rho-sweep reports every stage of
    its STAGES table, and each stage a leader op runs is called, so none of
    them reads zero because its function moved."""
    tree = ast.parse((ROOT / "scripts" / "profile_ops.py").read_text())
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "STAGES"
    )
    stages = [ast.literal_eval(key) for key in table.keys]
    done = run_script("profile_ops.py", "--tag", "t", "--passes", 1, "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert result["workload"] == "leader-rho-sweep" and result["exit_codes"] == [0]
    assert set(result["stages"]) == {*stages, "cli.parse"}
    # a warm leader op marches nothing and samples no first-order residual
    nash_only = {"wave_core.WaveOperator.march", "wave_core.WaveOperator.solve_adjoint",
                 "wave_core.WaveOperator.sample_responses", "coupled.euler_lagrange_residual"}
    idle = [s for s in stages if s not in nash_only and result["stages"][s]["calls_per_pass"] == 0]
    assert not idle
    # the cold pass looks up every value a leader op keeps, and the warm pass finds each
    kept = result["kept"]
    assert {"boundary_response", "follower_spectrum", "free_terminal", "dual_gram"} <= set(kept["cold"])
    (warm,) = kept["passes"]
    assert warm and all(row["misses"] == 0 and row["hits"] > 0 for row in warm.values())
