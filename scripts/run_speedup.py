#!/usr/bin/env python3
"""Serial versus pipelined wallclock on the Pareschi-Russo problem.

Asserts bitwise equality of the two results, then reports measured and
theoretical speedups per step count. The pipeline runs its workers in forked
processes, at most one per usable CPU, so the measured column is real
scaling, paid for with pipe hand-offs and with wavefronts too narrow to
stack; the theoretical column is the cycle-count bound.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hbpc.harness import StudyConfig, run_speedup_study

DEFAULT_CACHE = os.path.join(os.path.dirname(__file__), "..", "refcache")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=8, choices=(4, 6, 8))
    ap.add_argument("--kmax", type=int, default=7)
    ap.add_argument("--nsteps", default="100,200,400")
    args = ap.parse_args()
    os.environ.setdefault("HBPC_REF_CACHE", DEFAULT_CACHE)

    n_values = tuple(int(x) for x in args.nsteps.split(",") if x)
    cfg = StudyConfig(problem="pareschi_russo", eps=1.0, variant="Alg1",
                      q=args.q, kmax=args.kmax, n_values=n_values,
                      timing=True)
    print("N,kmax,serial_s,parallel_s,speedup,theoretical")
    for r in run_speedup_study(cfg):
        print(f"{r.n},{r.kmax},{r.serial_s:.3f},{r.parallel_s:.3f},"
              f"{r.speedup:.3f},{r.theoretical:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
