"""hierwave benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload leader-rho-sweep --seed 1 --seconds 5 --trace 0

Runs from the root of a source checkout and drives the program only through
``hierwave.cli.main``, called in-process with the ``leader`` and ``nash``
subcommands.  One op is one such call, timed until it returns with its
outputs written.  The run repeats whole rounds of the workload's ops until
``--seconds`` have passed, then checks every op's outputs (see checks.py)
and prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end with ``--trace 0``, per layer with ``--trace 1``).
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: the sparse LU that
# dominates is single-threaded, and on a small shared machine extra threads
# measure the scheduler.  Set-up children inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150

import plan as planmod  # noqa: E402  (the bench directory is sys.path[0])


def median_with_failures(times: list[float | None]) -> float:
    """Median op time; a failed op (None) ranks above every completed op."""
    ranked = sorted(times, key=lambda t: (t is None, t or 0.0))
    n = len(ranked)
    mid = ranked[(n - 1) // 2 : n // 2 + 1]
    if any(t is None for t in mid):
        return float("inf")
    return statistics.fmean(mid)


def run_setup(workload: str, seed: int, out: Path) -> float:
    """One set-up in a fresh process: imports, configs, reference solves."""
    if out.exists():
        shutil.rmtree(out)
    cmd = [
        sys.executable, str(BENCH / "plan.py"), "--workload", workload,
        "--seed", str(seed), "--out", str(out), "--src", str(SRC),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up for {workload} exited {proc.returncode}")
    return elapsed


def call_cli(cli_main, argv: list[str]) -> tuple[int, str]:
    """Run ``hierwave <argv>`` in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli_main(argv)
        except Exception:  # an escaped exception is a failed op, not a dead run
            code = "exception"
            err.write(traceback.format_exc())
    return code, err.getvalue()


def write_config(config: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config))
    return path


def replayer(cli_main):
    """``replay(config, out_dir) -> exit code``: run ``hierwave nash`` on a config."""
    def replay(config: dict, out_dir: Path) -> int:
        cfg = write_config(config, out_dir.parent / f"{out_dir.name}.json")
        code, _ = call_cli(cli_main, ["nash", "--config", str(cfg), "--out", str(out_dir)])
        return code

    return replay


def marcher(check: dict):
    """``march(bc)``: the time-stepping state for boundary data bc and zero initial data."""
    from hierwave.geometry import DomainSpec
    from hierwave.grid import GridSpec, Mesh
    from hierwave.wave_core import WaveOperator

    op = WaveOperator(Mesh(DomainSpec(k=check["k"], T=check["T"]), GridSpec(Ny=check["Ny"], Nt=check["Nt"])))
    zeros_t = np.zeros(check["Nt"] + 1)
    zeros_y = np.zeros(check["Ny"] + 1)
    return lambda bc: op.march(bc, zeros_t, zeros_y, zeros_y)


def check_ops(done: list[dict], ladders: list[list[str]], cli_main, seed: int) -> None:
    """Set ``errors`` and ``unexpected`` on every finished op."""
    import checks

    replay = replayer(cli_main)
    for d in done:
        if d["code"] != 0:
            d["errors"] = [f"exit {d['code']}: {d['stderr'].strip().splitlines()[-1:]}"]
        elif d["check"]["kind"] == "leader":
            d["errors"] = checks.check_leader(d["out"], d["check"], replay)
        else:
            d["errors"] = checks.check_nash(d["out"], d["check"], marcher(d["check"]), seed)
    for r in sorted({d["round"] for d in done}):
        by_name = {d["name"]: d for d in done if d["round"] == r}
        for names in ladders:
            ladder = [by_name[n] for n in names]
            if any(d["errors"] for d in ladder):
                continue
            points = [(d["check"]["rho_rel"], checks.leader_J(d["out"], d["check"]["T"])) for d in ladder]
            ladder[-1]["errors"].extend(checks.check_ladder(points))
    for d in done:
        d["unexpected"] = bool(d["errors"]) and not d["code"] == d["expect_exit"] != 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=planmod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hierwave" / "cli.py").is_file():
        print(f"no hierwave sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    # a terminated run still stops its set-up and kernel processes and waits
    # for them: SystemExit unwinds through subprocess.run and the finally below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    kernel = hostspeed.Kernel()
    try:
        return run(args, work, kernel)
    finally:
        kernel.close()
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, kernel: hostspeed.Kernel) -> int:
    # every time below is a wall time rescaled to the reference host speed by
    # the kernel brackets around it (see hostspeed.py)
    setup_times = []
    before = kernel.bracket()
    for i in range(SETUP_REPEATS):
        wall = run_setup(args.workload, args.seed, work / f"setup{i}")
        after = kernel.bracket(wall)
        setup_times.append(wall * hostspeed.scale(before, after))
        before = after
    plan = json.loads((work / f"setup{SETUP_REPEATS - 1}" / "plan.json").read_text())

    from hierwave.cli import main as cli_main

    import tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    # ---- timed loop: whole rounds until the time is up --------------------
    done: list[dict] = []
    layer_metrics = None
    loop_start = time.perf_counter()
    before = kernel.bracket(wall)
    round_index = 0
    while True:
        round_first_span = len(tracer.spans) if tracer else 0
        for op in planmod.round_ops(plan, round_index):
            out = work / "ops" / f"r{round_index}-{len(done)}-{op['name']}"
            cfg = write_config(op["config"], work / "configs" / f"{out.name}.json")
            argv = [op["command"], "--config", str(cfg), "--out", str(out)]
            span = tracer.open("cli.op", "cli") if tracer else None
            start = time.perf_counter()
            code, stderr = call_cli(cli_main, argv)
            wall = time.perf_counter() - start
            if tracer:
                tracer.close(span)
            after = kernel.bracket(wall)
            done.append({**op, "round": round_index, "out": out, "code": code, "stderr": stderr,
                         "wall": wall, "elapsed": wall * hostspeed.scale(before, after),
                         "kernel": (before, after)})
            before = after
        if tracer and round_index == 0:
            iterations = sum(
                json.loads((d["out"] / "report.json").read_text())["iterations"]
                for d in done if d["command"] == "leader" and d["code"] in (0, 4)
            )
            layer_metrics = tracer.metrics(round_first_span, len(tracer.spans), iterations)
            # per-layer times take the round's mean host-speed factor
            speed = sum(d["elapsed"] for d in done) / sum(d["wall"] for d in done)
            layer_metrics = {
                name: value * speed if tracing.METRICS[name][0] == "s" else value
                for name, value in layer_metrics.items()
            }
        round_index += 1
        if time.perf_counter() - loop_start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.remove()

    # ---- checks, after the memory reading ---------------------------------
    check_ops(done, plan["ladders"], cli_main, args.seed)

    # ---- report -----------------------------------------------------------
    attempted = len(done)
    failed = sum(1 for d in done if d["errors"])
    op_s = sum(d["elapsed"] for d in done)
    solve_p50 = median_with_failures([None if d["errors"] else d["elapsed"] for d in done])
    wall_p50 = median_with_failures([None if d["errors"] else d["wall"] for d in done])
    print(f"workload {args.workload} seed {args.seed}: {round_index} round(s), "
          f"{attempted} ops attempted, {failed} failed; wall time of the ops "
          f"{sum(d['wall'] for d in done):.2f} s, median {wall_p50:.3f} s")
    for d in done:
        status = "FAILED" if d["unexpected"] else "expected failure" if d["errors"] else "ok"
        iterations = ""
        if d["command"] == "leader" and (d["out"] / "report.json").is_file():
            iterations = f" {json.loads((d['out'] / 'report.json').read_text())['iterations']} it"
        print(f"  r{d['round']} {d['name']:<28} {d['wall']:8.3f} s wall {d['elapsed']:8.3f} s scaled "
              f"(kernel {d['kernel'][0] * 1e3:.1f}/{d['kernel'][1] * 1e3:.1f} ms){iterations}  {status}"
              + ("" if not d["errors"] else f"  {d['errors']}"))

    if args.trace:
        metrics = {name: (value, tracing.METRICS[name][0]) for name, value in layer_metrics.items()}
        metrics["trace.solve_s_p50"] = (solve_p50, "s")
        absent = sorted(set(tracing.METRICS) - set(layer_metrics))
        if absent:
            print(f"absent per-layer metrics (target gone): {', '.join(absent)}")
    else:
        metrics = {
            "solve_s_p50": (solve_p50, "s"),
            "solves_per_min": ((attempted - failed) * 60.0 / op_s, "1/min"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:14.6g} {unit}")
    result = {
        "correct": not any(d["unexpected"] for d in done),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
