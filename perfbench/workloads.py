"""The four benchmark workloads, each driving one public hbpc entry point.

Every workload is one of the paper's fixed problems; nothing about it is
random. The seed only decides, per round, whether ``pipeline`` runs its
serial or its parallel solve first.

A workload has three phases:

- ``setup()`` is what a user pays before the first solve: building the
  problem and tableau, resolving references from ``refcache/``, and one
  warm-up solve of a few steps at the workload's step size. ``setup_s``
  times it in fresh processes.
- ``references()`` computes external reference states with scipy's DOP853,
  which hbpc did not produce. It is excluded from ``setup_s``.
- ``rep(rng, log)`` runs the workload's calls once, times each and checks
  its result. Each solver call is one operation (the study counts one per
  N of its sweep); it fails if it raises a solver error or fails its check.

Solver entry points are looked up on their modules at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate

import hbpc.harness
import hbpc.pipeline
import hbpc.solver
from hbpc import NewtonConfig, SolverConfig, StudyConfig, builtin, make
from hbpc.harness import cache_key, load_reference

# DOP853 tolerances for the external references.
REF_RTOL = 1e-13
REF_ATOL = 1e-15
# The shipped refcache/ states must agree with DOP853 to this 2-norm.
REFCACHE_TOL = 1e-10


@dataclass
class Record:
    """One timed solver call."""

    kind: str
    steps: int      # timesteps the call completes
    ops: int        # benchmark operations it counts as
    wall: float
    ok: bool
    err: float | None = None  # final-iterate 2-norm error at t_end
    why: str = ""


@dataclass
class Rep:
    records: list
    outputs: dict = field(default_factory=dict)  # compared bitwise across reps


def dop853(p, t_end: float) -> np.ndarray:
    """State at ``t_end`` from scipy's DOP853 on the unsplit right-hand side."""
    sol = scipy.integrate.solve_ivp(
        lambda t, w: p.phi_e(w) + p.phi_i(w), (0.0, t_end), p.w0,
        method="DOP853", rtol=REF_RTOL, atol=REF_ATOL)
    if not sol.success:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    return sol.y[:, -1].copy()


def cached_reference(root: str, name: str, eps: float, t_end: float) -> np.ndarray:
    """Load a shipped reference state and hand it to the solver explicitly.

    ``integrate``/``integrate_parallel``/``limit_integrate`` do not read
    ``HBPC_REF_CACHE``; without ``reference=`` their ``errors`` are ``None``.
    """
    hit = load_reference(cache_key(name, eps=eps), os.path.join(root, "refcache"))
    if hit is None:
        raise RuntimeError(f"refcache/ has no reference for {name} eps={eps:g}")
    t_ref, state = hit
    if not math.isclose(t_ref, t_end, rel_tol=1e-12):
        raise RuntimeError(f"cached {name} reference is for t_end={t_ref}")
    return state


def _shortened(p, steps: int, dt: float):
    return dataclasses.replace(p, t_end=steps * dt, ref_t_end=None)


def _timed(kind: str, steps: int, ops: int, fn, *args, **kwargs):
    """Run one solver call; a solver error yields a failed record."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except RuntimeError as exc:
        return None, Record(kind, steps, ops, time.perf_counter() - t0, False,
                            why=f"{type(exc).__name__}: {exc}")
    return out, Record(kind, steps, ops, time.perf_counter() - t0, True)


def _check_run(rec: Record, run, ext_ref: np.ndarray, tol: float):
    """Fill ``rec`` from the checks every workload's runs share."""
    rec.err = float(np.linalg.norm(run.final_last_w[-1] - ext_ref))
    if run.errors is None:
        rec.ok, rec.why = False, "run.errors is None: reference not resolved"
    elif not rec.err <= tol:
        rec.ok, rec.why = False, f"final-iterate error {rec.err:.3e} above {tol:.0e}"


def _outputs(run):
    return (run.updates, run.final_last_w, run.newton_per_iterate)


class Orbit:
    """Arenstorf, Alg2 q=8 kmax=7, serial ``integrate`` at test_09's step
    (period/100000) over period/500. The dim-4 callbacks are the repo's most
    expensive, so problems, core and newton dominate."""

    name = "orbit"
    primary = "integrate"
    N = 200
    STEPS_PER_PERIOD = 100000
    TOL = 1e-11   # lands ~2.4e-13 from DOP853

    def __init__(self, root: str):
        self.root = root
        self.p = None

    def setup(self):
        base = make("arenstorf")
        builtin(8)
        self.dt = base.t_end / self.STEPS_PER_PERIOD
        self.p = _shortened(base, self.N, self.dt)
        self.cfg = SolverConfig(variant="Alg2", q=8, kmax=7, n_steps=self.N)
        hbpc.solver.integrate(_shortened(base, 4, self.dt),
                              dataclasses.replace(self.cfg, n_steps=4))

    def references(self):
        self.ref = dop853(self.p, self.p.t_end)

    def rep(self, rng, log=None) -> Rep:
        run, rec = _timed("integrate", self.N, 1, hbpc.solver.integrate,
                          self.p, self.cfg, reference=self.ref)
        if run is None:
            return Rep([rec])
        _check_run(rec, run, self.ref, self.TOL)
        return Rep([rec], {"integrate": _outputs(run)})


class Pipeline:
    """pareschi_russo eps=1, Alg1 q=8 kmax=3: ``integrate_parallel`` on its 2
    paired workers beside serial ``integrate`` of the same config. Cheap dim-2
    blocks expose channel hand-off and GIL contention."""

    name = "pipeline"
    primary = "integrate_parallel"
    N = 240
    EPS = 1.0
    TOL = 1e-6   # kmax=3 truncation error; lands ~7.8e-8 from DOP853

    def __init__(self, root: str):
        self.root = root
        self.p = None

    def setup(self):
        self.p = make("pareschi_russo", eps=self.EPS)
        builtin(8)
        self.cached_ref = cached_reference(self.root, "pareschi_russo", self.EPS,
                                           self.p.t_end)
        self.cfg = SolverConfig(variant="Alg1", q=8, kmax=3, n_steps=self.N)
        self.workers = hbpc.pipeline.WorkerAssignment("Alg1", 3).n_workers
        dt = self.p.t_end / self.N
        short, scfg = _shortened(self.p, 4, dt), dataclasses.replace(self.cfg, n_steps=4)
        hbpc.solver.integrate(short, scfg)
        hbpc.pipeline.integrate_parallel(short, scfg)

    def references(self):
        self.ref = dop853(self.p, self.p.t_end)
        gap = float(np.linalg.norm(self.cached_ref - self.ref))
        if gap > REFCACHE_TOL:
            raise RuntimeError(f"refcache pareschi_russo is {gap:.2e} from DOP853")

    def rep(self, rng, log=None) -> Rep:
        calls = {
            "integrate": lambda: _timed(
                "integrate", self.N, 1, hbpc.solver.integrate, self.p, self.cfg,
                reference=self.cached_ref),
            "integrate_parallel": lambda: _timed(
                "integrate_parallel", self.N, 1, hbpc.pipeline.integrate_parallel,
                self.p, self.cfg, workers=self.workers, reference=self.cached_ref,
                channel_log=log),
        }
        order = list(calls)
        if rng.random() < 0.5:
            order.reverse()
        runs, records = {}, []
        for kind in order:
            run, rec = calls[kind]()
            records.append(rec)
            if run is not None:
                _check_run(rec, run, self.ref, self.TOL)
                runs[kind] = run
        if len(runs) == 2:
            serial, parallel = (_outputs(runs[k]) for k in calls)
            same = (np.array_equal(serial[0], parallel[0])
                    and all(np.array_equal(a, b) for a, b in zip(serial[1], parallel[1]))
                    and np.array_equal(serial[2], parallel[2]))
            if not same:
                for rec in records:
                    rec.ok, rec.why = False, "serial and parallel differ bitwise"
        return Rep(records, {k: _outputs(r) for k, r in runs.items()})


class Study:
    """``run_convergence_study`` on scalar_pow alpha=0.2, Alg1 q=8 kmax=9,
    Newton rel 1e-13 / abs 1e-15, N in {40..640} (test_03's q=8 cell), then
    ``estimate_order`` and the CSV round trip. Its dim-1 callbacks are cheap,
    so per-stage Python overhead dominates."""

    name = "study"
    primary = "run_convergence_study"
    ALPHA = 0.2
    T_END = 0.25
    N_VALUES = (40, 80, 160, 320, 640)
    TOL = 1e-12  # float64 floor; lands ~1.1e-13 from the closed form

    def __init__(self, root: str):
        self.root = root
        self.p = None  # the harness builds its own problem from the name

    def setup(self):
        make("scalar_pow", alpha=self.ALPHA)
        builtin(8)
        self.cfg = StudyConfig(
            problem="scalar_pow", alpha=self.ALPHA, variant="Alg1", q=8, kmax=9,
            n_values=self.N_VALUES, newton=NewtonConfig(rel_tol=1e-13, abs_tol=1e-15))
        hbpc.harness.run_convergence_study(
            dataclasses.replace(self.cfg, n_values=self.N_VALUES[:1]))

    def references(self):
        # closed form of w' = -w^(-5/2), w(0) = 1, written out independently
        self.ref = np.array([(1.0 - 3.5 * self.T_END) ** (2.0 / 7.0)])
        hbpc_exact = make("scalar_pow", alpha=self.ALPHA).exact(self.T_END)
        if not np.array_equal(hbpc_exact, self.ref):
            raise RuntimeError("scalar_pow's exact solution disagrees with the closed form")

    def rep(self, rng, log=None) -> Rep:
        table, rec = _timed("run_convergence_study", sum(self.N_VALUES),
                            len(self.N_VALUES), hbpc.harness.run_convergence_study,
                            self.cfg)
        if table is None:
            return Rep([rec])
        slopes = hbpc.harness.estimate_order(table)
        text = hbpc.harness.render_csv(table)
        rec.err = table.rows[-1].errs[-1]
        if hbpc.harness.parse_csv(text, table.t_end) != table:
            rec.ok, rec.why = False, "parse_csv(render_csv(t)) != t"
        elif not (slopes.shape == (self.cfg.kmax + 1,) and math.isfinite(slopes[0])):
            rec.ok, rec.why = False, f"estimate_order gave {slopes}"
        elif not rec.err <= self.TOL:
            rec.ok, rec.why = False, f"final-iterate error {rec.err:.3e} above {self.TOL:.0e}"
        return Rep([rec], {"run_convergence_study": text})


class StiffLimit:
    """van_der_pol eps=1e-3, Limit q=6, N=160: ``limit_integrate``'s
    sweep-to-fixed-point loop, about 61 sweeps per step."""

    name = "stiff_limit"
    primary = "limit_integrate"
    N = 160
    EPS = 1e-3
    TOL = 1e-10  # lands ~1.3e-12 from DOP853

    def __init__(self, root: str):
        self.root = root
        self.p = None

    def setup(self):
        self.p = make("van_der_pol", eps=self.EPS)
        builtin(6)
        self.cached_ref = cached_reference(self.root, "van_der_pol", self.EPS,
                                           self.p.t_end)
        self.cfg = SolverConfig(variant="Limit", q=6, kmax=1, n_steps=self.N)
        hbpc.solver.limit_integrate(
            _shortened(self.p, 2, self.p.t_end / self.N),
            dataclasses.replace(self.cfg, n_steps=2))

    def references(self):
        self.ref = dop853(self.p, self.p.t_end)
        gap = float(np.linalg.norm(self.cached_ref - self.ref))
        if gap > REFCACHE_TOL:
            raise RuntimeError(f"refcache van_der_pol is {gap:.2e} from DOP853")

    def rep(self, rng, log=None) -> Rep:
        run, rec = _timed("limit_integrate", self.N, 1, hbpc.solver.limit_integrate,
                          self.p, self.cfg, reference=self.cached_ref)
        if run is None:
            return Rep([rec])
        _check_run(rec, run, self.ref, self.TOL)
        if rec.ok and run.iter_cap_hits != 0:
            rec.ok, rec.why = False, f"{run.iter_cap_hits} Newton iteration-cap hits"
        return Rep([rec], {"limit_integrate": _outputs(run)
                           + (np.array(run.sweeps_per_step),)})


WORKLOADS = {w.name: w for w in (Orbit, Pipeline, Study, StiffLimit)}
