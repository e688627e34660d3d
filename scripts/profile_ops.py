#!/usr/bin/env python3
"""Time the stages of a gated benchmark workload's ops, pass by pass.

Builds the workload's plan with ``bench/plan.py``'s ``build_plan`` (its
reference solves included), runs every op once through
``hierwave.cli.main`` in this process to fill the caches, then runs
``--passes`` more passes with a timer around each stage:

    leader_dual._secular_newton  the multipliers' Newton solve, including the
                                 per-iterate certificate rows of its history
    leader_dual.vi_min           the sampled certificate's defect minimum
    leader_dual._sample_points   its comparison points
    grid.csv_io                  the grid module's CSV readers and writers
    cli.parse                    main's time outside load_config and the
                                 command: building and running the parser

The first three nest: the last two run inside the Newton solve and once
more after it.  Each stage reports the median over passes of its time per
pass, of its share of the pass's op time, and of its calls per pass;
``op_s_p50`` is the median warm op's wall time.  Wall times follow the
host's speed, which can drift by tens of percent between runs on a shared
machine; the shares drift far less.
The result is written as ``BENCH_<tag>.json`` in ``--out``.

Each checkout imports its own ``src``, so two commits compare on one host
with

    python scripts/profile_ops.py --tag before     # in checkout A
    python scripts/profile_ops.py --tag after      # in checkout B

Usage: python scripts/profile_ops.py --tag TAG [--workload W] [--seed 7]
       [--passes 5] [--out DIR]
"""

import os

# one BLAS thread, as in the benchmark
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from hierwave import cli  # noqa: E402
from plan import build_plan  # noqa: E402

# stage name -> (module, attribute path) of every function it times
STAGES = {
    "leader_dual._secular_newton": [("hierwave.leader_dual", "_secular_newton")],
    "leader_dual.vi_min": [("hierwave.leader_dual", "_DualModel.vi_min")],
    "leader_dual._sample_points": [("hierwave.leader_dual", "_sample_points")],
    "grid.csv_io": [
        ("hierwave.grid", name)
        for name in (
            "save_field_csv",
            "save_profile_csv",
            "save_trace_csv",
            "load_field_csv",
            "load_profile_csv",
            "load_trace_csv",
        )
    ],
}


class StageTimers:
    """Wrappers that add each call's wall time to its stage's running total."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _timed(self, fn, stage: str):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[stage] = self.seconds.get(stage, 0.0) + time.perf_counter() - start
                self.calls[stage] = self.calls.get(stage, 0) + 1

        return timed

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hierwave"]
        targets = [(stage, *t) for stage, ts in STAGES.items() for t in ts]
        for name in ("load_config", "cmd_leader", "cmd_nash"):
            targets.append(("cli.dispatched", "hierwave.cli", name))
        for stage, module, path in targets:
            *owners, attr = path.split(".")
            owner = sys.modules[module]
            for name in owners:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            wrapper = self._timed(original, stage)
            if owners:
                self._patch(owner, attr, wrapper)
                continue
            # module-level functions are also bound by name in importing modules
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """The totals since the last take, and reset."""
        out = (self.seconds, self.calls)
        self.seconds, self.calls = {}, {}
        return out


def run_pass(ops: list[dict]) -> tuple[list[float], list[int]]:
    """Every op once; their wall times and exit codes."""
    times, codes = [], []
    for op in ops:
        argv = [op["command"], "--config", op["config_path"], "--out", op["out"]]
        start = time.perf_counter()
        codes.append(cli.main(argv))
        times.append(time.perf_counter() - start)
    return times, codes


def profile(workload: str, seed: int, passes: int) -> dict:
    plan = build_plan(workload, seed, Path("plan"), cli.main)
    ops = []
    for op in plan["ops"]:
        path = Path("configs") / f"{op['name']}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(op["config"]))
        ops.append({"command": op["command"], "config_path": str(path), "out": str(Path("ops") / op["name"])})
    _, warm_codes = run_pass(ops)

    timers = StageTimers()
    timers.install()
    try:
        op_times, per_pass = [], []
        for _ in range(passes):
            times, codes = run_pass(ops)
            if codes != warm_codes:
                raise RuntimeError(f"exit codes changed between passes: {warm_codes} -> {codes}")
            seconds, calls = timers.take()
            seconds["cli.parse"] = sum(times) - seconds.pop("cli.dispatched", 0.0)
            calls["cli.parse"] = len(ops)
            calls.pop("cli.dispatched", None)
            op_times.extend(times)
            per_pass.append((seconds, calls))
    finally:
        timers.remove()

    pass_s = [sum(op_times[i : i + len(ops)]) for i in range(0, len(op_times), len(ops))]
    stages = {}
    for stage in [*STAGES, "cli.parse"]:
        seconds = [s.get(stage, 0.0) for s, _ in per_pass]
        stages[stage] = {
            "s_per_pass_p50": statistics.median(seconds),
            "s_per_pass": seconds,
            "share_p50": statistics.median(s / total for s, total in zip(seconds, pass_s)),
            "calls_per_pass": statistics.median(c.get(stage, 0) for _, c in per_pass),
        }
    return {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "ops_per_pass": len(ops),
        "exit_codes": sorted(set(warm_codes)),
        "op_s_p50": statistics.median(op_times),
        "pass_s": pass_s,
        "stages": stages,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser.add_argument("--workload", choices=workloads, default="leader-rho-sweep")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--out", default=".", help="directory for BENCH_<tag>.json")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    target = Path(args.out).resolve() / f"BENCH_{args.tag}.json"
    home = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="profile_ops-") as work:
        os.chdir(work)
        try:
            result = profile(args.workload, args.seed, args.passes)
        finally:
            os.chdir(home)
    result = {
        "tag": args.tag,
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        **result,
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(result, indent=1) + "\n")
    print(f"{args.workload}, {args.passes} passes of {result['ops_per_pass']} ops: "
          f"op_s_p50 {result['op_s_p50']:.4f} s; wrote {target}")
    for stage, row in result["stages"].items():
        print(f"  {stage:30s} {row['s_per_pass_p50'] * 1e3:8.2f} ms/pass  "
              f"{row['share_p50']:6.1%} of op time  {row['calls_per_pass']:g} calls")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
