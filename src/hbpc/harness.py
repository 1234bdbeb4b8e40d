"""Convergence, speedup, and limit studies with deterministic CSV output.

A study sweeps the step count N over a fixed problem/method configuration,
its N values on the usable CPUs, and records per-iterate errors at t_end,
wallclock, and Newton-iteration tallies grouped by pipeline worker. With
timing disabled (the default) the CSV artifact is byte-identical across
reruns of the same configuration and CPU counts; enabling timing (or running
the speedup study, whose wallclock columns are the data) trades that away.

Reference solutions resolve in precedence order: explicit array on the
config, the problem's closed-form solution, its recorded end state, then a
CSV cache directory (``HBPC_REF_CACHE`` or ``StudyConfig.ref_cache``) keyed
by problem id and parameters.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import astuple, dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .core import Array, SplitProblem, _as_state
from . import pipeline as _pipeline
from .newton import NewtonConfig
from .pipeline import WorkerAssignment, integrate_parallel
from .problems import make
from .solver import (CapExceededError, NoConvergenceError, SolverConfig,
                     adaptive_kmax, integrate, known_reference)

ERROR_FLOOR = 1e-13
REF_CACHE_ENV = "HBPC_REF_CACHE"


class InsufficientDataError(ValueError):
    """Fewer than three rows supplied to the order estimator."""


class MismatchedResultsError(RuntimeError):
    """Serial and parallel runs of the same configuration disagree bitwise."""


class MissingReferenceError(RuntimeError):
    """No reference solution could be resolved for an error study."""


@dataclass(frozen=True)
class StudyConfig:
    """One convergence/speedup/limit study: problem, method, and N sweep."""

    problem: Union[str, SplitProblem]
    variant: str = "Alg1"
    q: int = 4
    kmax: int = 3
    n_values: tuple = (40, 80, 160, 320, 640)
    eps: Optional[float] = None
    alpha: Optional[float] = None
    parallel: bool = False
    workers: Optional[int] = None
    out: Optional[str] = None
    timing: bool = False
    newton: NewtonConfig = NewtonConfig()
    limit_tol: float = 1e-13
    limit_max_sweeps: int = 10000
    reference: Optional[Array] = None
    ref_cache: Optional[str] = None

    def __post_init__(self):
        for n in self.n_values:
            if not (isinstance(n, numbers.Real) and math.isfinite(n) and n == int(n) >= 1):
                raise ValueError(f"n_values must be whole numbers >= 1, got {n!r}")
        object.__setattr__(self, "n_values",
                           tuple(int(n) for n in self.n_values))
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        if self.parallel and self.variant == "Limit":
            raise ValueError("the limit solver has no parallel executor")
        if self.reference is not None:
            object.__setattr__(self, "reference", _as_state(self.reference))


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    dt: float
    errs: tuple          # per-iterate ||w - w_h||_2 at t_end
    wallclock: float
    newton: tuple        # Newton iterations summed per worker column


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    t_end: float


@dataclass(frozen=True)
class SpeedupReport:
    n: int
    kmax: int
    serial_s: float
    parallel_s: float
    speedup: float
    theoretical: float


@dataclass(frozen=True)
class LimitRow:
    """One (eps, N) cell of the adaptive-vs-limit comparison, fields in CSV
    column order; failed cells keep None entries, which render blank."""

    eps: float
    n: int
    kmax_used: Optional[int]
    err_adaptive: Optional[float]
    err_limit: Optional[float]
    agree: Optional[bool]


def newton_partition(variant: str, kmax: int) -> list:
    """Iterate indices grouped by the pipeline worker that owns them
    (``WorkerAssignment``); the limit solver, which reports one iterate, and
    an unpipelineable even kmax give a single column."""
    if variant == "Limit":
        variant, kmax = "serial", 0
    elif variant != "LO" and kmax % 2 == 0:
        variant = "serial"
    asg = WorkerAssignment(variant=variant, kmax=kmax)
    return [asg.iterates(w) for w in range(asg.n_workers)]


def cache_key(problem: str, eps: Optional[float] = None,
              alpha: Optional[float] = None) -> str:
    parts = [problem]
    if eps is not None:
        parts.append(f"eps{eps:g}")
    if alpha is not None:
        parts.append(f"alpha{alpha:g}")
    return "_".join(parts)


def save_reference(key: str, t_end: float, state: Array,
                   cache_dir: str) -> str:
    """Write one reference state as a single-line CSV; returns the path."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".csv")
    with open(path, "w", newline="") as fh:
        fh.write(render_table(None, [[float(t_end), *np.asarray(state, dtype=float)]]))
    return path


def load_reference(key: str, cache_dir: Optional[str] = None):
    """Return (t_end, state) from the cache, or None when absent."""
    cache_dir = cache_dir or os.environ.get(REF_CACHE_ENV)
    if not cache_dir:
        return None
    path = os.path.join(cache_dir, key + ".csv")
    if not os.path.exists(path):
        return None
    with open(path, newline="") as fh:
        cells = fh.read().strip().split(",")
    values = [float(c) for c in cells]
    return values[0], np.array(values[1:], dtype=float)


def _study_problem(cfg: StudyConfig) -> SplitProblem:
    if isinstance(cfg.problem, SplitProblem):
        return cfg.problem
    return make(cfg.problem, eps=cfg.eps, alpha=cfg.alpha)


def resolve_reference(p: SplitProblem, cfg: StudyConfig) -> Optional[Array]:
    ref = known_reference(p, cfg.reference)
    if ref is not None:
        return ref
    if isinstance(cfg.problem, str):
        hit = load_reference(cache_key(cfg.problem, cfg.eps, cfg.alpha),
                             cfg.ref_cache)
        if hit is not None:
            t_end, state = hit
            if not math.isclose(t_end, p.t_end, rel_tol=1e-9):
                raise ValueError(
                    f"cached reference is for t_end={t_end}, problem has "
                    f"t_end={p.t_end}")
            if state.shape != (p.dim,):
                raise ValueError("cached reference has wrong dimension")
            return state
    return None


def _solver_config(cfg: StudyConfig, n: int) -> SolverConfig:
    return SolverConfig(variant=cfg.variant, q=cfg.q, kmax=cfg.kmax,
                        n_steps=n, newton=cfg.newton,
                        limit_tol=cfg.limit_tol,
                        limit_max_sweeps=cfg.limit_max_sweeps)


def _study_row(p: SplitProblem, cfg: StudyConfig, n: int, reference: Array) -> ConvergenceRow:
    scfg = _solver_config(cfg, n)
    run = (integrate_parallel(p, scfg, workers=cfg.workers, reference=reference)
           if cfg.parallel else integrate(p, scfg, reference=reference))
    newton = tuple(int(sum(run.newton_per_iterate[k] for k in g))
                   for g in newton_partition(cfg.variant, cfg.kmax))
    return ConvergenceRow(n=n, dt=p.t_end / n,
                          errs=tuple(float(e) for e in run.errors),
                          wallclock=run.wallclock if cfg.timing else 0.0,
                          newton=newton)


def _study_groups(cfg: StudyConfig) -> list:
    """cfg.n_values in groups, the largest N first to the least-loaded group (cost
    N); one group if the pipeline takes the CPUs, the wallclock is data, or the
    caller may not fork (``pipeline._may_fork``)."""
    if cfg.parallel or cfg.timing or not _pipeline._may_fork():
        return [cfg.n_values]
    groups = [[] for _ in range(min(len(cfg.n_values), _pipeline._usable_cpus()))]
    for n in sorted(cfg.n_values, reverse=True):
        min(groups, key=sum).insert(0, n)
    return groups


def run_convergence_study(cfg: StudyConfig) -> ConvergenceTable:
    """One ConvergenceRow per N; deterministic given cfg (timing off). The first
    of ``_study_groups`` runs here, the others in forked children. Raises
    MissingReferenceError without a resolvable reference; the smallest failing
    N's solver error propagates after the rows below that N go to cfg.out."""
    p = _study_problem(cfg)
    ref = resolve_reference(p, cfg)
    if ref is None:
        raise MissingReferenceError(
            f"no reference solution for {p.name} at t_end={p.t_end}; "
            f"supply one or populate the {REF_CACHE_ENV} cache")
    groups = _study_groups(cfg)

    def run_group(g: int):  # ascending N up to the first failure, kept as data
        rows = []
        for n in groups[g]:
            try:
                rows.append(_study_row(p, cfg, n, ref))
            except Exception as exc:  # noqa: BLE001 - raised below if its N is smallest
                return rows, (n, exc)
        return rows, None

    done = _pipeline.fork_join(run_group, len(groups), "hbpc-study")
    stop, exc = min((f for _, f in done if f), key=lambda f: f[0], default=(math.inf, None))
    table = ConvergenceTable(tuple(sorted((r for rows, _ in done for r in rows if r.n < stop),
                                          key=lambda r: r.n)), p.t_end)
    if cfg.out and table.rows:
        write_csv(cfg.out, table)
    if exc is not None:
        raise exc
    return table


def estimate_order(table) -> np.ndarray:
    """Per-iterate least-squares slope of log(err) against log(dt).

    Rows with err below 1e-13 are excluded as floor-contaminated; an
    iterate left with fewer than two usable rows gets slope NaN. Requires
    at least three rows in total.
    """
    rows = table.rows if isinstance(table, ConvergenceTable) else tuple(table)
    if len(rows) < 3:
        raise InsufficientDataError("need at least 3 rows to fit slopes")
    n_cols = len(rows[0].errs)
    if any(len(r.errs) != n_cols for r in rows):
        raise ValueError("rows have inconsistent iterate counts")
    if any(e < 0 for r in rows for e in r.errs):
        raise ValueError("errors must be non-negative")
    slopes = np.full(n_cols, np.nan)
    for k in range(n_cols):
        xs = [math.log(r.dt) for r in rows if r.errs[k] >= ERROR_FLOOR]
        ys = [math.log(r.errs[k]) for r in rows if r.errs[k] >= ERROR_FLOOR]
        if len(xs) >= 2:
            slopes[k] = float(np.polyfit(xs, ys, 1)[0])
    return slopes


def theoretical_speedup(variant: str, kmax: int, n: int) -> float:
    """Serial cycle count over pipelined critical-path cycle count."""
    serial = n * (kmax + 1)
    if variant == "LO":
        return serial / (n + kmax)
    return serial / (2 * n + kmax - 1)


def run_speedup_study(cfg: StudyConfig) -> tuple:
    """Serial-vs-parallel timing per N; hard-fails unless updates, final
    stages, Newton counts and cap hits match. Wallclock columns here are real
    measurements by nature."""
    p = _study_problem(cfg)
    ref = resolve_reference(p, cfg)
    reports = []
    for n in cfg.n_values:
        scfg = _solver_config(cfg, n)
        serial = integrate(p, scfg, reference=ref)
        parallel = integrate_parallel(p, scfg, workers=cfg.workers,
                                      reference=ref)
        same = (np.array_equal(serial.updates, parallel.updates)
                and all(np.array_equal(a, b)
                        for a, b in zip(serial.final_last_w, parallel.final_last_w))
                and np.array_equal(serial.newton_per_iterate,
                                   parallel.newton_per_iterate)
                and serial.iter_cap_hits == parallel.iter_cap_hits)
        if not same:
            raise MismatchedResultsError(
                f"serial and parallel results differ at N={n}")
        reports.append(SpeedupReport(
            n=n, kmax=cfg.kmax, serial_s=serial.wallclock,
            parallel_s=parallel.wallclock,
            speedup=serial.wallclock / parallel.wallclock,
            theoretical=theoretical_speedup(cfg.variant, cfg.kmax, n)))
    return tuple(reports)


def run_limit_study(cfg: StudyConfig, eps_values: Sequence[float],
                    start_kmax: int = 4) -> tuple:
    """Adaptive-kmax and limit-solver errors side by side per (eps, N).

    Cells where the limit sweeps fail to settle or the doubling passes its
    ceiling are recorded blank. ``agree`` marks cells where both converged
    and the errors differ by at most 1%.
    """
    if not isinstance(cfg.problem, str):
        raise ValueError("run_limit_study sweeps eps, so it needs a problem id")
    variant = "Alg1" if cfg.variant == "Limit" else cfg.variant
    out = []
    for eps in eps_values:
        sub = replace(cfg, eps=float(eps), variant=variant)
        p = _study_problem(sub)
        ref = resolve_reference(p, sub)
        if ref is None:
            raise MissingReferenceError(
                f"no reference for {p.name} eps={eps:g}")
        for n in cfg.n_values:
            kmax_used = err_a = None
            try:
                kmax_used, run_a = adaptive_kmax(
                    p, _solver_config(sub, n), start_kmax, reference=ref)
                err_a = float(run_a.errors[-1])
            except (CapExceededError, NoConvergenceError):
                pass
            err_l = None
            try:
                lcfg = replace(_solver_config(sub, n), variant="Limit", kmax=1)
                err_l = float(integrate(p, lcfg, reference=ref).errors[0])
            except NoConvergenceError:
                pass
            agree = None
            if err_a is not None and err_l is not None:
                agree = abs(err_a - err_l) <= 0.01 * max(err_l, 1e-300)
            out.append(LimitRow(eps=float(eps), n=n, kmax_used=kmax_used,
                                err_adaptive=err_a, err_limit=err_l,
                                agree=agree))
    return tuple(out)


def _cell(x) -> str:
    """One CSV cell: blank for None, 1/0 for a flag, %.16e for a float."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.16e}"
    return str(x)


def render_table(header, rows) -> str:
    """Comma-separated ``header`` line (none when None), then one line of
    ``_cell``s per row; LF line endings."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(_cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def render_csv(table: ConvergenceTable) -> str:
    """Fixed-format CSV: N, per-iterate errors, wallclock, per-worker
    Newton tallies; %.16e floats, integer counts, LF line endings."""
    r0 = table.rows[0]
    header = ["N", *(f"err_k{k}" for k in range(len(r0.errs))), "wallclock_s",
              *(f"newton_w{i}" for i in range(len(r0.newton)))]
    return render_table(header, ([r.n, *r.errs, r.wallclock, *r.newton]
                                 for r in table.rows))


def write_csv(path, table: ConvergenceTable) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_csv(table))


def parse_csv(source, t_end: float) -> ConvergenceTable:
    """Inverse of render_csv; dt is reconstructed as t_end / N, matching
    how the study computed it, so parse(render(t), t.t_end) == t."""
    if hasattr(source, "read"):
        text = source.read()
    elif "\n" in source:
        text = source
    else:
        with open(source, newline="") as fh:
            text = fh.read()
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    err_cols = [i for i, h in enumerate(header) if h.startswith("err_k")]
    newton_cols = [i for i, h in enumerate(header)
                   if h.startswith("newton_w")]
    wall_col = header.index("wallclock_s")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        n = int(cells[0])
        rows.append(ConvergenceRow(
            n=n, dt=t_end / n,
            errs=tuple(float(cells[i]) for i in err_cols),
            wallclock=float(cells[wall_col]),
            newton=tuple(int(cells[i]) for i in newton_cols)))
    return ConvergenceTable(tuple(rows), t_end)


def render_limit_csv(rows) -> str:
    return render_table(["eps", "N", "kmax_used", "err_adaptive", "err_limit",
                         "agree"], (astuple(r) for r in rows))
