#!/usr/bin/env python3
"""Time the H build and the whole manufactured run at several grid sizes.

For each Ny, a fresh process runs ``scripts/run_manufactured.py``'s
experiment (``main(out_dir, Ny)``) on one BLAS thread, with a timer around
``WaveOperator._march_boundary_response``: the build of H = S^T W S and of
the last levels of S, once per mesh.  Each run records

    hbuild_s      the H build's wall time
    wall_s        the process's wall time, start-up and imports included
    peak_rss_mb   the process's peak resident set (ru_maxrss)
    primal_J, gap_rel, iterations   from the run's report.json

and each grid the median of each over ``--runs`` runs, taken in turn over
the grids.  Wall times follow the host's speed, which can drift by tens of
percent between runs on a shared machine.  The result is written as
``BENCH_<tag>.json`` in ``--out``.

Each checkout imports its own ``src`` and ``scripts``, so two commits
compare on one host with

    python scripts/bench_hbuild.py --tag before     # in checkout A
    python scripts/bench_hbuild.py --tag after      # in checkout B

Usage: python scripts/bench_hbuild.py --tag TAG [--ny 41,64,128,256]
       [--runs 3] [--out DIR]
"""

import os

# one BLAS thread, as in the benchmark
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEYS = ("hbuild_s", "wall_s", "peak_rss_mb", "primal_J", "gap_rel", "iterations")


def child(ny: int, out_dir: str) -> None:
    """One manufactured run, in this process; prints its record as JSON."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    from hierwave.wave_core import WaveOperator
    import run_manufactured

    builds = []
    build = WaveOperator._march_boundary_response

    @functools.wraps(build)
    def timed(self):
        start = time.perf_counter()
        try:
            return build(self)
        finally:
            builds.append(time.perf_counter() - start)

    WaveOperator._march_boundary_response = timed
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        run_manufactured.main(out_dir, str(ny))
    report = json.loads((Path(out_dir) / "report.json").read_text())
    print(json.dumps({
        "hbuild_s": sum(builds),
        "hbuild_count": len(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "primal_J": report["primal_J"],
        "gap_rel": report["gap_rel"],
        "iterations": report["iterations"],
        "printed": printed.getvalue().splitlines(),
    }))


def run(ny: int, work: Path) -> dict:
    """One run of :func:`child` in a fresh process, with its wall time."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(ny), "--out", str(work / f"ny{ny}")],
        capture_output=True, text=True, check=True,
    )
    wall = time.perf_counter() - start
    return {**json.loads(done.stdout.splitlines()[-1]), "wall_s": wall}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", help="names the output, BENCH_<tag>.json")
    parser.add_argument("--ny", default="41,64,128,256", help="comma-separated grid sizes")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=".", help="directory for BENCH_<tag>.json")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        child(args.child, args.out)
        return 0
    if args.tag is None:
        parser.error("--tag is required")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sizes = [int(n) for n in args.ny.split(",")]

    runs = {ny: [] for ny in sizes}
    with tempfile.TemporaryDirectory(prefix="bench_hbuild-") as work:
        for _ in range(args.runs):
            for ny in sizes:
                runs[ny].append(run(ny, Path(work)))
                row = runs[ny][-1]
                print(f"Ny={ny}: H build {row['hbuild_s']:.3f} s, run {row['wall_s']:.2f} s, "
                      f"peak RSS {row['peak_rss_mb']:.1f} MB, J* {row['primal_J']:.6f}, "
                      f"gap_rel {row['gap_rel']:.3e}, {row['iterations']} iterations", flush=True)
    result = {
        "tag": args.tag,
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "runs_per_grid": args.runs,
        "grids": {
            str(ny): {
                **{f"{key}_p50": statistics.median(row[key] for row in rows) for key in KEYS},
                "runs": rows,
            }
            for ny, rows in runs.items()
        },
    }
    target = Path(args.out).resolve() / f"BENCH_{args.tag}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
