#!/usr/bin/env python3
"""Replay the benchmark's gated plans and keep every output, for diffing commits.

For one seed, builds the plan of each workload that ``BENCHMARK.json`` gates
with ``bench/plan.py``'s ``build_plan`` (its reference solves included) and
runs every op once, in order, through ``hierwave.cli.main`` in this process,
as the benchmark's first round does.  Everything lands under ``--out``: one
directory per workload with its configs, reference solves and op outputs,
and ``exit_codes.json`` with the exit code of every op.

Paths inside the configs are relative to ``--out``, which is the working
directory of the replay, so the ``config_hash`` lines of two replays match
wherever they are written.  Each checkout imports its own ``src``, so two
commits compare with

    python scripts/replay_outputs.py --out /tmp/a        # in checkout A
    python scripts/replay_outputs.py --out /tmp/b        # in checkout B
    diff -r /tmp/a /tmp/b

Usage: python scripts/replay_outputs.py --out DIR [--seed 7]
"""

import os

# one BLAS thread, as in the benchmark, so that sums keep one order
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from hierwave.cli import main as run_cli  # noqa: E402
from plan import build_plan  # noqa: E402


def replay(workload: str, seed: int) -> dict:
    """Run the workload's plan under ./<workload>; returns {op name: exit code}."""
    base = Path(workload)
    plan = build_plan(workload, seed, base / "plan", run_cli)
    codes = {}
    for op in plan["ops"]:
        cfg = base / "configs" / f"{op['name']}.json"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(json.dumps(op["config"]))
        argv = [op["command"], "--config", str(cfg), "--out", str(base / "ops" / op["name"])]
        try:
            codes[op["name"]] = run_cli(argv)
        except Exception as err:  # an escaped exception is an outcome to compare, too
            codes[op["name"]] = f"exception: {type(err).__name__}: {err}"
    return codes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="directory for the outputs; emptied first")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out = Path(args.out).resolve()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    os.chdir(out)
    codes = {workload: replay(workload, args.seed) for workload in workloads}
    Path("exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    n_ops = sum(len(c) for c in codes.values())
    n_files = sum(1 for p in out.rglob("*") if p.is_file())
    print(f"seed {args.seed}: {n_ops} ops of {', '.join(workloads)}; {n_files} files under {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
