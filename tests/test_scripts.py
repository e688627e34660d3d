"""The experiment scripts under scripts/, each run as a program."""

import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # a fresh `import hierwave.cli` takes time and loads no scipy module
    assert result["import_s"] > 0 and result["import_scipy"] == []
    # its first LAPACK call then loads the extension alone
    assert result["lapack_s"] > 0 and result["lapack_scipy"] == ["scipy.linalg._flapack"]
    assert set(result["stages"]) == {*stages, "cli.parse"}
    # a warm leader op marches nothing and samples no first-order residual
    nash_only = {"wave_core.WaveOperator.march", "wave_core.WaveOperator.solve_adjoint",
                 "wave_core.WaveOperator.sample_responses", "coupled.euler_lagrange_residual",
                 "grid.npy_write"}
    idle = [s for s in stages if s not in nash_only and result["stages"][s]["calls_per_pass"] == 0]
    assert not idle
    # the cold pass looks up every value a leader op keeps, and the warm pass finds each
    kept = result["kept"]
    assert {"boundary_response", "follower_spectrum", "free_terminal", "dual_gram"} <= set(kept["cold"])
    # the cold pass starts from no operator, though the plan's reference
    # solves built one per mesh: each of the two meshes builds H and the
    # follower spectrum in it
    assert kept["cold"]["boundary_response"]["misses"] == 2
    assert kept["cold"]["follower_spectrum"]["misses"] == 2
    (warm,) = kept["passes"]
    assert warm and all(row["misses"] == 0 and row["hits"] > 0 for row in warm.values())


def test_replay_compare_reports_a_perturbed_npy(tmp_path):
    """replay_outputs.py's compare reads .npy outputs bit for bit: one
    perturbed value is the file kind's largest relative difference, at its
    index, and a dtype or shape change is flagged as a layout change."""
    import numpy as np

    values = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
    perturbed = values.copy()
    perturbed[1, 2] += 1e-3
    files = {"p.npy": (perturbed, values), "same.npy": (values, values),
             "q.npy": (values.astype(np.float32), values)}
    for side, pick in (("ours", 0), ("theirs", 1)):
        op = tmp_path / side / "nash-sigma-ladder" / "ops" / "op0"
        op.mkdir(parents=True)
        for name, pair in files.items():
            np.save(op / name, pair[pick], allow_pickle=False)
        (tmp_path / side / "exit_codes.json").write_text(json.dumps({"nash-sigma-ladder": {"op0": 0}}))
    code = ("import runpy, sys; from pathlib import Path; "
            "sys.exit(runpy.run_path(sys.argv[1])['compare'](Path(sys.argv[2]), Path(sys.argv[3])))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts" / "replay_outputs.py"),
                           str(tmp_path / "ours"), str(tmp_path / "theirs")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = {row[0]: row for row in map(str.split, done.stdout.splitlines()) if row}
    # the perturbed cell, 1e-3 against the file's largest magnitude, 2
    assert float(rows["nash-sigma-ladder/ops/*/p.npy"][2]) == pytest.approx(1e-3 / 2.0, rel=1e-9)
    assert rows["nash-sigma-ladder/ops/*/p.npy"][3:] == ["op0/p.npy", "(1,", "2)"]
    assert float(rows["nash-sigma-ladder/ops/*/same.npy"][2]) == 0.0
    assert "layout changed: op0/q.npy: float64 (3, 4) -> float32 (3, 4)" in done.stdout
