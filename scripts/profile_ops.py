#!/usr/bin/env python3
"""Time the stages of a gated benchmark workload's ops, pass by pass.

Builds the workload's plan with ``bench/plan.py``'s ``build_plan`` (its
reference solves included), runs every op once through
``hierwave.cli.main`` in this process to fill the caches (the cold pass),
then runs ``--passes`` more passes, with a timer around each stage in
every pass:

    leader_dual._secular_newton  the multipliers' Newton solve in whitened
                                 coordinates: one Cholesky factorization,
                                 one two-column solve and a closed-form 2x2
                                 step per iterate
    leader_dual.certificate      the sampled certificates of the history rows
                                 and of the answer, in one batch
                                 (_certificates)
    leader_dual._DualModel       the dual model's set-up (_DualModel.__init__):
                                 the kept whitened Gram and factor, the free
                                 state's final pair, and the data term
    leader_dual._reached         the distance check through one honest
                                 application of the reach operator
    coupled.free_terminal        CoupledEngine.free_terminal, the free state's
                                 final pair
    coupled.follower_trace       CoupledEngine.follower_trace, the follower's
                                 reduced solve
    wave_core.WaveOperator.boundary_response  the lookup of H = S^T W S and
                                 the last levels of S kept by the mesh's
                                 operator, which builds them on a miss: the
                                 march of every unit datum and the blocked
                                 products, once per mesh
    wave_core.WaveOperator.follower_spectrum  the lookup of the follower
                                 block's eigendecomposition kept by the mesh's
                                 operator, which runs LAPACK dsyevr on a miss:
                                 the follower factorization, once per mesh
    grid.PoissonRiesz.solve_values  the tridiagonal Poisson solve behind the
                                 H^-1 norm of the distance check
    wave_core.WaveOperator.march  the forward wave march, each step one
                                 contraction with the mesh's stencil table
                                 and one pre-factored tridiagonal solve: in a
                                 warm nash op the follower's state alone
    wave_core.WaveOperator.solve_adjoint  the backward (transposed) sweep,
                                 each level one contraction with the same
                                 table read transposed and one transposed
                                 solve: the companion state and the tracked
                                 row
    wave_core.WaveOperator.sample_responses  the lookup of the first-order
                                 sample's 8 direction responses kept by the
                                 mesh's operator, which marches them on a miss
    coupled.euler_lagrange_residual  `hierwave nash`'s sampled first-order
                                 (Euler-Lagrange) residual, the lookup of its
                                 directions' responses included
    grid.csv_write               the grid module's CSV writers
    grid.csv_read                the grid module's CSV readers
    cli.parse                    main's time outside load_config and the
                                 command: building and running the parser

Stages nest: free_terminal inside the model's set-up, follower_spectrum
inside follower_trace, boundary_response (the H build on a miss) inside
whichever of free_terminal, follower_trace and follower_spectrum asks
first, solve_values inside the distance check, solve_adjoint (the tracked
row) inside free_terminal, sample_responses inside
euler_lagrange_residual, and march inside sample_responses only on a miss.
Each stage reports the median over passes of its time per pass, of its
share of the pass's op time, and of its calls per pass; a stage whose
function the checkout lacks reads zero.  ``op_s_p50`` is the median warm
op's wall time.  ``cold`` holds the first pass, which fills the caches:
its wall time and each stage's time and calls, so that work done once per
mesh, such as the follower factorization, shows.  ``peak_rss_mb`` is the
process's peak resident set (``ru_maxrss``) at the end, plan included.
``kept`` counts, for each name under which the mesh's operator keeps a
value (``WaveOperator.kept``), the lookups that found it (hits) and those
that built it (misses): ``cold`` for the first pass, ``passes`` one entry
per warm pass.  A warm pass of a workload that repeats its ops should miss
nothing; a checkout without ``WaveOperator.kept`` reports none.
Wall times follow the host's speed, which can drift by tens of percent
between runs on a shared machine; the shares drift far less.
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
import resource
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
    "leader_dual.certificate": [("hierwave.leader_dual", "_certificates")],
    "leader_dual._DualModel": [("hierwave.leader_dual", "_DualModel.__init__")],
    "leader_dual._reached": [("hierwave.leader_dual", "_reached")],
    "coupled.free_terminal": [("hierwave.coupled", "CoupledEngine.free_terminal")],
    "coupled.follower_trace": [("hierwave.coupled", "CoupledEngine.follower_trace")],
    "wave_core.WaveOperator.boundary_response": [("hierwave.wave_core", "WaveOperator.boundary_response")],
    "wave_core.WaveOperator.follower_spectrum": [("hierwave.wave_core", "WaveOperator.follower_spectrum")],
    "grid.PoissonRiesz.solve_values": [("hierwave.grid", "PoissonRiesz.solve_values")],
    "wave_core.WaveOperator.march": [("hierwave.wave_core", "WaveOperator.march")],
    "wave_core.WaveOperator.solve_adjoint": [("hierwave.wave_core", "WaveOperator.solve_adjoint")],
    "wave_core.WaveOperator.sample_responses": [("hierwave.wave_core", "WaveOperator.sample_responses")],
    "coupled.euler_lagrange_residual": [("hierwave.coupled", "euler_lagrange_residual")],
    "grid.csv_write": [
        ("hierwave.grid", name) for name in ("save_field_csv", "save_profile_csv", "save_trace_csv")
    ],
    "grid.csv_read": [
        ("hierwave.grid", name) for name in ("load_field_csv", "load_profile_csv", "load_trace_csv")
    ],
}


class StageTimers:
    """Wrappers that add each call's wall time to its stage's running total,
    and count the hits and misses of every kept value by name."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.kept: dict[str, dict[str, int]] = {}
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

    def _counted(self, kept):
        """``WaveOperator.kept``, counting a lookup as a miss when it builds."""

        @functools.wraps(kept)
        def counted(op, name, key, build):
            built = []

            def counted_build():
                built.append(True)
                return build()

            try:
                return kept(op, name, key, counted_build)
            finally:
                row = self.kept.setdefault(name, {"hits": 0, "misses": 0})
                row["misses" if built else "hits"] += 1

        return counted

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hierwave"]
        targets = [(stage, *t) for stage, ts in STAGES.items() for t in ts]
        for name in ("load_config", "cmd_leader", "cmd_nash"):
            targets.append(("cli.dispatched", "hierwave.cli", name))
        operator = sys.modules["hierwave.wave_core"].WaveOperator
        if hasattr(operator, "kept"):
            self._patch(operator, "kept", self._counted(operator.kept))
        for stage, module, path in targets:
            *owners, attr = path.split(".")
            owner = sys.modules[module]
            for name in owners:
                owner = getattr(owner, name)
            original = getattr(owner, attr, None)
            if original is None:
                continue
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

    def take(self) -> tuple[dict[str, float], dict[str, int], dict[str, dict[str, int]]]:
        """The totals and kept counts since the last take, and reset."""
        out = (self.seconds, self.calls, self.kept)
        self.seconds, self.calls, self.kept = {}, {}, {}
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

    timers = StageTimers()
    timers.install()
    try:
        cold_times, warm_codes = run_pass(ops)
        cold_seconds, cold_calls, cold_kept = timers.take()
        cold_seconds.pop("cli.dispatched", None)
        cold_calls.pop("cli.dispatched", None)
        op_times, per_pass, kept_passes = [], [], []
        for _ in range(passes):
            times, codes = run_pass(ops)
            if codes != warm_codes:
                raise RuntimeError(f"exit codes changed between passes: {warm_codes} -> {codes}")
            seconds, calls, kept = timers.take()
            kept_passes.append(kept)
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
        "cold": {
            "pass_s": sum(cold_times),
            "stages": {
                stage: {"s": cold_seconds.get(stage, 0.0), "calls": cold_calls.get(stage, 0)} for stage in STAGES
            },
        },
        "kept": {"cold": cold_kept, "passes": kept_passes},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
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
          f"op_s_p50 {result['op_s_p50']:.4f} s; cold pass {result['cold']['pass_s']:.3f} s; "
          f"peak RSS {result['peak_rss_mb']:.1f} MB; wrote {target}")
    for stage, row in result["stages"].items():
        print(f"  {stage:40s} {row['s_per_pass_p50'] * 1e3:8.2f} ms/pass  "
              f"{row['share_p50']:6.1%} of op time  {row['calls_per_pass']:g} calls")
    kept = result["kept"]
    for name in sorted({*kept["cold"], *(n for p in kept["passes"] for n in p)}):
        warm = [p.get(name, {"hits": 0, "misses": 0}) for p in kept["passes"]]
        print(f"  kept {name:35s} cold {kept['cold'].get(name, {}).get('misses', 0)} misses; "
              f"warm passes {sum(w['hits'] for w in warm)} hits, {sum(w['misses'] for w in warm)} misses")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
