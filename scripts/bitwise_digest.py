#!/usr/bin/env python3
"""One SHA-256 over the solvers' outputs, to show a change is bitwise neutral.

Runs a fixed set of solves through the public API and hashes every float
they return, bit for bit:

- ``integrate`` with ``keep_traces=True`` on the four built-in problems and a
  finite-difference van der Pol (no ``dphi_i_jac``), for Alg1/Alg2/LO and
  both corrector starts: updates, final-stage states, errors, Newton
  iterations per iterate, and per step the Newton iterations, the residual
  norm of every stage solve and the last-stage states;
- ``integrate_parallel`` on the same cases, which must equal the serial run
  bitwise (the script exits with status 1 if it does not). Each case runs a
  second time as if on 3 CPUs, so that a process receives from two others
  even on a 2-CPU machine; that run is compared with the serial one but not
  hashed, so the total does not depend on the CPU count;
- both again on scalar_pow Alg1 and Alg2 at q=8, kmax=9 with tight Newton
  tolerances, where the sweeps reach their fixed point and the block loop
  reuses blocks instead of recomputing them;
- both again on stiff van der Pol (Alg1) and Pareschi-Russo (LO), eps=1e-3,
  q=8, kmax=9, whose serial runs solve wide wavefronts as one stack with
  lanes that retire at different iterations and are damped, while the
  pipeline solves the same stages one by one;
- ``limit_integrate`` on the same problems but Arenstorf, plus a stiff van
  der Pol;
- the CSV bytes of two convergence studies and of one limit study.

Compare two checkouts by running this file against each one's sources:

    python3 scripts/bitwise_digest.py                      # this checkout
    python3 scripts/bitwise_digest.py --src OTHER/src      # another one

The total digest goes to stdout; one digest per case goes to stderr, to
locate a difference.
"""

import argparse
import dataclasses
import hashlib
import os
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="directory holding the hbpc package (default: this checkout's)")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    import numpy as np
    from hbpc import (NewtonConfig, SolverConfig, StudyConfig, integrate,
                      integrate_parallel, limit_integrate, make, pipeline, render_csv,
                      run_convergence_study, run_limit_study)
    from hbpc.harness import render_limit_csv

    repo = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    total = hashlib.sha256()

    def digest(label, items):
        h = hashlib.sha256()
        for item in items:
            if isinstance(item, bytes):
                h.update(item)
            else:
                a = np.ascontiguousarray(item)
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(a.tobytes())
        total.update(label.encode())
        total.update(h.digest())
        print(f"{h.hexdigest()}  {label}", file=sys.stderr)

    def run_items(run):
        items = [run.updates, np.array(run.final_last_w),
                 np.asarray(run.newton_per_iterate), np.array([run.iter_cap_hits])]
        if run.errors is not None:
            items.append(run.errors)
        return items

    def trace_items(run):
        items = []
        for tr in run.traces:
            items += [np.asarray(tr.newton_iters), np.array(tr.residual_norms),
                      np.array(tr.last_stage_w), np.array([tr.iter_cap_hits, tr.sweeps])]
        return items

    vdp_fd = dataclasses.replace(make("van_der_pol"), dphi_i_jac=None,
                                 name="van_der_pol_fd")
    cases = [  # (label, problem, n_steps)
        ("scalar_pow", make("scalar_pow"), 20),
        ("pareschi_russo", make("pareschi_russo"), 40),
        ("van_der_pol", make("van_der_pol"), 20),
        ("arenstorf", dataclasses.replace(make("arenstorf"), t_end=1.0), 40),
        ("van_der_pol_fd", vdp_fd, 20),
    ]
    mismatches = []

    def serial_and_parallel(tag, p, cfg):
        serial = integrate(p, cfg, keep_traces=True)
        digest(f"integrate {tag}", run_items(serial) + trace_items(serial))
        par = integrate_parallel(p, cfg)
        digest(f"integrate_parallel {tag}", run_items(par))
        usable_cpus = pipeline._usable_cpus
        pipeline._usable_cpus = lambda: 3
        try:
            par3 = integrate_parallel(p, cfg)
        finally:
            pipeline._usable_cpus = usable_cpus
        for what, run in ((tag, par), (f"{tag} on 3 CPUs", par3)):
            a_items, b_items = run_items(serial), run_items(run)
            if len(a_items) != len(b_items) or any(
                    a.tobytes() != b.tobytes() for a, b in zip(a_items, b_items)):
                mismatches.append(what)

    for label, p, n in cases:
        for variant in ("Alg1", "Alg2", "LO"):
            for start in ("hierarchical", "red"):
                cfg = SolverConfig(variant=variant, q=8, kmax=3, n_steps=n,
                                   corrector_start=start)
                serial_and_parallel(f"{label} {variant} {start}", p, cfg)

    tight = NewtonConfig(rel_tol=1e-13, abs_tol=1e-15)
    for variant in ("Alg1", "Alg2"):
        cfg = SolverConfig(variant=variant, q=8, kmax=9, n_steps=40, newton=tight)
        serial_and_parallel(f"scalar_pow {variant} kmax=9 tight", make("scalar_pow"), cfg)
    for name, variant, n in (("van_der_pol", "Alg1", 20), ("pareschi_russo", "LO", 40)):
        cfg = SolverConfig(variant=variant, q=8, kmax=9, n_steps=n)
        serial_and_parallel(f"{name} eps=1e-3 {variant} kmax=9", make(name, eps=1e-3), cfg)

    # the limit sweep does not settle on the Arenstorf case at this step size
    limit_cases = [c for c in cases if c[0] != "arenstorf"]
    limit_cases.append(("van_der_pol eps=1e-3", make("van_der_pol", eps=1e-3), 160))
    for label, p, n in limit_cases:
        cfg = SolverConfig(variant="Limit", q=6, n_steps=n)
        run = limit_integrate(p, cfg, keep_traces=True)
        digest(f"limit_integrate {label}",
               run_items(run) + trace_items(run) + [np.array(run.sweeps_per_step)])

    studies = [
        StudyConfig(problem="scalar_pow", alpha=0.2, variant="Alg1", q=8, kmax=9,
                    newton=tight),
        StudyConfig(problem="pareschi_russo", eps=1.0, variant="Alg2", q=6, kmax=3,
                    n_values=(20, 40, 80), ref_cache=os.path.join(repo, "refcache")),
    ]
    for cfg in studies:
        csv = render_csv(run_convergence_study(cfg))
        digest(f"study {cfg.problem} {cfg.variant} q={cfg.q} kmax={cfg.kmax}",
               [csv.encode()])
    limit_study = StudyConfig(problem="van_der_pol", q=4, n_values=(15, 30),
                              limit_max_sweeps=2000,
                              ref_cache=os.path.join(repo, "refcache"))
    csv = render_limit_csv(run_limit_study(limit_study, [0.1], start_kmax=2))
    digest("limit study van_der_pol eps=0.1 q=4", [csv.encode()])

    print(total.hexdigest())
    for tag in mismatches:
        print(f"serial and parallel differ: {tag}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
