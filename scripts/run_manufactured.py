#!/usr/bin/env python3
"""End-to-end manufactured experiment.

Builds a reference leader control, runs the follower equilibrium to obtain a
reachable final state, then asks the dual minimizer to steer into 5% balls
around that state.  Prints the cost comparison (reference vs optimal leader),
the duality gap, and the optimality certificate, and writes the artifacts.
The engine's boundary response (H = S^T W S, once per mesh) is built first,
under a timer, so the run also prints the H build's wall time; the last
line gives the process's peak resident set (ru_maxrss).

Usage: python scripts/run_manufactured.py [out_dir] [Ny]
"""

import os

# one BLAS thread, as in the benchmark, so that sums keep one order
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource
import sys
import time
from pathlib import Path

import numpy as np

from hierwave.geometry import DomainSpec, SigmaPartition
from hierwave.grid import (
    Field,
    Mesh,
    Trace,
    hminus1_norm_physical,
    l2_norm_physical,
    save_json,
    save_profile_csv,
    save_trace_csv,
)
from hierwave.coupled import FollowerConfig, cost_J, get_engine, solve_nash_system
from hierwave.wave_core import final_value_profile, final_velocity_profile
from hierwave.leader_dual import DualOptions, TargetSpec, duality_gap, minimize_dual


def main(out_dir="runs/manufactured", Ny="41"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mesh = Mesh.auto(DomainSpec(k=0.1, T=4.0), int(Ny))
    part = SigmaPartition.overlap(mesh.Nt + 1)
    Y, T = np.meshgrid(mesh.y, mesh.times, indexing="ij")
    cfg = FollowerConfig(
        sigma=1.0, partition=part, u_tilde2=Field(0.3 * np.sin(np.pi * Y) * np.sin(T), mesh)
    )

    t0 = time.perf_counter()
    get_engine(mesh, cfg).op.boundary_response()
    h_build = time.perf_counter() - t0

    t = mesh.times
    w1_ref = Trace(
        np.sin(2 * np.pi * t / 4.0) * np.exp(-0.5 * ((t - 2.0) / 0.8) ** 2), part.mask1, mesh
    )
    sol = solve_nash_system(w1_ref, cfg)
    u_T = final_value_profile(sol.u)
    ut_T = final_velocity_profile(sol.u)
    targets = TargetSpec(
        u_T, ut_T, 0.05 * l2_norm_physical(u_T), 0.05 * hminus1_norm_physical(ut_T)
    )
    print(f"grid Ny={mesh.Ny} Nt={mesh.Nt}; equilibrium by the schur solve")
    print(f"H build (boundary response)      = {h_build:.2f}s")
    print(f"reference leader cost     J(ref) = {cost_J(w1_ref):.6f}")

    t0 = time.perf_counter()
    f_star, w1_star, rep = minimize_dual(targets, cfg, DualOptions(seed=0))
    elapsed = time.perf_counter() - t0
    gap = duality_gap(w1_star, f_star, targets, cfg)
    print(f"optimal leader cost       J(w1*) = {rep.primal_J:.6f}")
    print(f"dual value                D(f*)  = {rep.dual_value:.6f}")
    print(f"duality gap (relative)           = {gap / rep.primal_J:.3e}")
    print(f"certificate (sampled inequality) = {rep.vi_residual:.3e}")
    print(f"targets reached: {rep.reached}; {rep.iterations} iterations, {elapsed:.1f}s")

    save_trace_csv(out / "w1_ref.csv", w1_ref)
    save_trace_csv(out / "w1_star.csv", w1_star)
    save_profile_csv(out / "target_value.csv", targets.u_target0)
    save_profile_csv(out / "target_velocity.csv", targets.u_target1)
    save_profile_csv(out / "f0_star.csv", f_star.f0)
    save_profile_csv(out / "f1_star.csv", f_star.f1)
    save_json(out / "report.json", rep.payload())
    print(f"wrote artifacts to {out}/")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")


if __name__ == "__main__":
    main(*sys.argv[1:])
