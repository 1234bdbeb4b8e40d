"""Command-line driver for convergence, speedup, limit, and schedule studies.

Data goes to --out or standard output; diagnostics go to standard error.
Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import (StudyConfig, estimate_order, render_csv,
                      render_limit_csv, render_table, run_convergence_study,
                      run_limit_study, run_speedup_study)
from .pipeline import simulate_schedule

VARIANT_NAMES = {"alg1": "Alg1", "alg2": "Alg2", "lo": "LO", "limit": "Limit"}


def _float_list(text: str) -> list:
    return [float(x) for x in text.split(",") if x]


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hbpc",
        description="Parallel-in-time two-derivative IMEX "
                    "predictor-corrector studies")
    ap.add_argument("--problem", default="scalar_pow",
                    help="problem id (scalar_pow, pareschi_russo, "
                         "van_der_pol, arenstorf)")
    ap.add_argument("--eps", default=None,
                    help="stiffness parameter; comma list for --study limit")
    ap.add_argument("--alpha", type=float, default=None,
                    help="explicit flux fraction for scalar_pow")
    ap.add_argument("--q", type=int, choices=(4, 6, 8), default=4,
                    help="method order (stages = q/2)")
    ap.add_argument("--kmax", type=int, default=3,
                    help="number of correction sweeps")
    ap.add_argument("--variant", choices=sorted(VARIANT_NAMES),
                    default="alg1")
    ap.add_argument("--nsteps", type=_int_list, default=[40, 80, 160, 320, 640],
                    help="comma-separated list of step counts")
    ap.add_argument("--parallel", action="store_true",
                    help="run through the pipelined executor")
    ap.add_argument("--workers", type=int, default=None,
                    help="worker count (defaults to the variant's natural "
                         "partition)")
    ap.add_argument("--out", default=None,
                    help="write the data table here instead of stdout")
    ap.add_argument("--simulate-schedule", action="store_true",
                    help="print pipeline cycle counts instead of integrating")
    ap.add_argument("--study", choices=("convergence", "speedup", "limit"),
                    default="convergence")
    ap.add_argument("--timing", action="store_true",
                    help="record real wallclock in the convergence CSV "
                         "(breaks byte determinism)")
    ap.add_argument("--start-kmax", type=int, default=4,
                    help="initial sweep count for the adaptive doubling in "
                         "--study limit")
    return ap


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run(args) -> None:
    variant = VARIANT_NAMES[args.variant]
    eps_list = _float_list(args.eps) if args.eps else []
    if args.simulate_schedule:
        rows = ([variant, args.kmax, n, simulate_schedule(variant, args.kmax, n),
                 simulate_schedule("serial", args.kmax, n)] for n in args.nsteps)
        _emit(render_table(["variant", "kmax", "N", "cycles", "serial_cycles"], rows),
              args.out)
        return

    cfg = StudyConfig(problem=args.problem, variant=variant, q=args.q,
                      kmax=args.kmax, n_values=tuple(args.nsteps),
                      eps=eps_list[0] if len(eps_list) == 1 else None,
                      alpha=args.alpha, parallel=args.parallel,
                      workers=args.workers, timing=args.timing)

    if args.study == "convergence":
        if len(eps_list) > 1:
            raise ValueError("--study convergence takes a single --eps")
        table = run_convergence_study(cfg)
        _emit(render_csv(table), args.out)
        if len(table.rows) >= 3:
            slopes = estimate_order(table)
            pretty = ", ".join("nan" if np.isnan(s) else f"{s:.2f}"
                               for s in slopes)
            print(f"estimated orders per iterate: {pretty}", file=sys.stderr)
    elif args.study == "speedup":
        rows = ([r.n, r.kmax, r.serial_s, r.parallel_s, r.speedup, r.theoretical]
                for r in run_speedup_study(cfg))
        _emit(render_table(["N", "kmax", "serial_s", "parallel_s", "speedup",
                            "theoretical"], rows), args.out)
    else:
        if not eps_list:
            raise ValueError("--study limit needs --eps with one or more "
                             "comma-separated values")
        rows = run_limit_study(cfg, eps_list, start_kmax=args.start_kmax)
        _emit(render_limit_csv(rows), args.out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except (ValueError, KeyError) as exc:
        print(f"hbpc: configuration error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"hbpc: solver error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
