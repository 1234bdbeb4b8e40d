"""Predictor-corrector solvers built on two-derivative collocation.

One timestep runs a second-order implicit Taylor predictor over the stages
(iterate 0) followed by kmax correction sweeps. Each correction solves, per
stage, a small implicit system whose forcing combines the previous iterate's
cached fluxes with the stage quadrature; the update is the last stage of the
last iterate (first-same-as-last). Four variants share this machinery:

- ``Alg1``: baseline sweep; the additive constant of iterate k+1 at step n is
  the last stage of iterate min(k+2, kmax) from step n-1.
- ``Alg2``: third-order predictor (sources iterate 1 of the previous step) and
  Gauss-Seidel quadrature (stages already updated this sweep contribute their
  fresh fluxes).
- ``LO``: each target iterate sources its own lane from the previous step,
  which decouples iterates across steps at the cost of second-order accuracy.
- ``Limit``: per step, Gauss-Seidel sweeps repeat until the stage values stop
  changing, realizing the limiting fully coupled Runge-Kutta method.

The unit of work is a block, all stages of iterate k at step n; blocks and
the inputs each reads (``dependencies``) form a DAG. ``run_blocks`` computes
the blocks of some iterates one wavefront of the DAG at a time: ``integrate``
runs it over every iterate, each pipeline worker over its own. Once the
sweeps of a step reach their fixed point, a correction block reads the same
state bits as its predecessor, and ``run_blocks`` hands out the
predecessor's outputs instead of recomputing them (the fixed-point skip).
A wavefront's blocks are independent, the method's time parallelism, which
``run_blocks`` brings to one core by solving wide ones as one stack, bitwise:
one builder, ``_jacobi_blocks``, poses the stage systems of a Jacobi block
alone or of a whole wavefront.
``limit_integrate`` keeps its own sweep loop: its red term and stopping rule
are not the DAG's.

Stage solves delegate to the damped Newton iteration; flux bundles are cached
per stage and reused everywhere so a pipelined execution of the same blocks
performs bit-identical floating-point work.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (Array, FluxBundle, NonFiniteError, SplitProblem, all_finite,
                   eval_bundle, fd_jacobian)
from .newton import NewtonConfig, NewtonResult, judge
from . import newton as _newton
from .tableaux import TwoDerivativeTableau, builtin, quadrature

VARIANTS = ("Alg1", "Alg2", "LO", "Limit")
CORRECTOR_STARTS = ("hierarchical", "red")


class NoConvergenceError(RuntimeError):
    """Limit sweep cap reached while stage values were still changing."""


class CapExceededError(RuntimeError):
    """Adaptive doubling passed the iterate ceiling without stabilizing."""


@dataclass(frozen=True)
class SolverConfig:
    variant: str = "Alg1"
    q: int = 4
    kmax: int = 3
    n_steps: int = 1
    newton: NewtonConfig = NewtonConfig()
    limit_tol: float = 1e-13
    limit_max_sweeps: int = 10000
    corrector_start: str = "hierarchical"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r} (use one of {VARIANTS})")
        builtin(self.q)  # UnsupportedOrderError, a ValueError, for any other order
        for name in ("q", "kmax", "n_steps", "limit_max_sweeps"):
            if not (isinstance(getattr(self, name), numbers.Integral)
                    and getattr(self, name) >= 1):
                raise ValueError(f"{name} must be an integer, at least 1")
        if not 0 < self.limit_tol < math.inf:
            raise ValueError("limit_tol must lie in (0, inf)")
        if self.corrector_start not in CORRECTOR_STARTS:
            raise ValueError(f"corrector_start must be one of {CORRECTOR_STARTS}")


@dataclass(frozen=True)
class StageSource:
    """A state and its flux bundle, feeding a predictor or a red term."""

    w: Array
    f: FluxBundle


@dataclass(frozen=True, order=True)
class Block:
    """One unit of work: all stages of iterate k at timestep n."""

    n: int
    k: int


def dependencies(b: Block, variant: str, kmax: int) -> set:
    """Blocks that must complete before b can run (seed needs drop out)."""
    deps = set()
    if b.k == 0:
        src_k = 1 if variant == "Alg2" else 0
        if b.n >= 1:
            deps.add(Block(b.n - 1, src_k))
        return deps
    deps.add(Block(b.n, b.k - 1))
    red_k = b.k if variant == "LO" else min(b.k + 1, kmax)
    if b.n >= 1:
        deps.add(Block(b.n - 1, red_k))
    return deps


@dataclass
class StepTrace:
    newton_iters: Array       # (kmax+1,) Newton iterations per iterate this step
    residual_norms: list      # [k][l] final residual norm per stage solve
    last_stage_w: list        # [k] last-stage state per iterate this step
    iter_cap_hits: int = 0
    sweeps: int = 0           # Limit only


@dataclass
class RunResult:
    config: SolverConfig
    t_end: float
    updates: Array                 # (n_steps+1, dim) accepted updates w^0..w^N
    final_last_w: list             # [k] last-stage state per iterate at the final step
    errors: Array | None           # per-iterate 2-norm error at t_end, None without reference
    newton_per_iterate: Array      # (kmax+1,) total Newton iterations per iterate
    iter_cap_hits: int
    wallclock: float
    traces: list | None = None
    sweeps_per_step: list | None = None


def _copy_result(w: Array) -> NewtonResult:
    return NewtonResult(w=w, iters=0, residual_norm=0.0, converged_by="absolute")


@functools.cache
def _eye(dim: int) -> Array:
    """The dim x dim identity, built once per dim and read-only."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def _solve_stage(p: SplitProblem, a: float, rhs: Array, start: StageSource,
                 ncfg: NewtonConfig):
    """Solve w - a Phi_I(w) + a^2/2 dPhi_I(w) = rhs from ``start``; return
    (w, bundle, result).

    Newton starts at ``start.w`` and its first residual reads Phi_I and dPhi_I
    from ``start.f``, so the start state costs no callback; Phi_I' there is
    evaluated only if Newton takes an iteration, and a solve that converges
    at its start returns ``start.w`` and ``start.f`` themselves. Every other
    Newton state is evaluated once: the residual calls Phi_E, Phi_I and Phi_I'
    one time each and keeps them, with Phi and dPhi_I = Phi_I' Phi, as the
    last evaluation. The Newton matrix reuses that Phi_I' (Newton asks for it
    only at the state the residual saw last), and the converged bundle is the
    last evaluation plus dPhi_E = Phi_E' Phi, bitwise what ``eval_bundle``
    gives at the solved state. The evaluation lives in this call, so
    concurrent solves share nothing. The residual Jacobian is assembled
    analytically when the problem carries d(dPhi_I)/dw, otherwise by finite
    differences of the residual map. Callers run it under
    ``np.errstate(all="ignore")``, once per block: overflow shows up as the
    NaN/Inf that Newton and the bundle check turn into NonFiniteError.
    """
    half_a2 = 0.5 * a * a
    # (w, Phi_E, Phi_I, Phi, Phi_I', dPhi_I) at the last state past the start
    last = (None,) * 6

    def F(w):
        nonlocal last
        if w is start.w:
            return w - a * start.f.phi_i + half_a2 * start.f.dphi_i - rhs
        fe = p.phi_e(w)
        fi = p.phi_i(w)
        ji = p.jac_i(w)
        ftot = fe + fi
        di = ji @ ftot
        last = (w, fe, fi, ftot, ji, di)
        return w - a * fi + half_a2 * di - rhs

    if p.dphi_i_jac is not None:
        eye = _eye(p.dim)

        def J(w):
            ji = last[4] if last[0] is w else p.jac_i(w)
            return eye - a * ji + half_a2 * p.dphi_i_jac(w)
    else:
        def J(w):
            return fd_jacobian(F, w)

    res = _newton.solve(F, J, start.w, ncfg)
    if res.w is start.w:
        return start.w, start.f, res
    if last[0] is not res.w:  # never, while newton.solve keeps its contract
        F(res.w)
    w, fe, fi, ftot, _, di = last
    de = p.jac_e(w) @ ftot
    if not all_finite(fe, fi, de, di):
        raise NonFiniteError(f"flux evaluation produced NaN/Inf at w={w!r}")
    return w, FluxBundle(fe, fi, de, di, ftot), res


def _solve_stages(p: SplitProblem, a: Array, rhs: Array, starts, ncfg: NewtonConfig):
    """``_solve_stage`` for B lanes at once on the callbacks' stacked forms:
    lane i solves w - a[i] Phi_I(w) + a[i]^2/2 dPhi_I(w) = rhs[i] from the
    (state, bundle) ``starts[i]``; returns one (w, bundle, result) per lane.

    Each row, a lane still iterating, takes ``newton.solve``'s steps and its
    ``judge`` verdicts, so it gets bitwise ``_solve_stage``'s results (matmul
    operands stay contiguous: its bits depend on layout). A NaN/Inf or a pivot
    below the floor (the entry at d = 1, ``_lu_solve_checked`` per lane at
    d > 1) in any lane sends all through ``_solve_stage``, which raises the
    first lane's error. Callers run it under ``np.errstate(all="ignore")``.
    """
    try:
        return _stacked_newton(p, a, rhs, starts, ncfg)
    except (FloatingPointError, _newton.SingularJacobianError):
        return [_solve_stage(p, a_i, rhs_i, StageSource(*start), ncfg)
                for a_i, rhs_i, start in zip(a, rhs, starts)]


def _stacked_newton(p: SplitProblem, a: Array, rhs: Array, starts, ncfg: NewtonConfig):
    # Per-lane norms and dampings are Python floats, bitwise numpy's.
    # A finite sum has finite terms: a finite J.sum() passes J, a finite sum
    # of phi + dphi the four bundle parts; other sums fall to the exact check.
    phi_e, phi_i, jac_e, jac_i, dphi_i_jac = (getattr(p, cb).stack for cb in _CALLBACKS)
    d = rhs.shape[1]
    W = np.array([w for w, _ in starts])
    PI = np.array([f.phi_i for _, f in starts])
    DPI = np.array([f.dphi_i for _, f in starts])
    a = a[:, None]
    h = 0.5 * a * a
    R = W - a * PI + h * DPI - rhs
    rn = _newton._norms(R).tolist()
    if not all(map(math.isfinite, rn)):
        raise FloatingPointError
    out, hist, damp = [None] * len(rn), [[r] for r in rn], [[] for _ in rn]
    th, lanes = [None] * len(rn), []
    for i, (h_i, (w, f)) in enumerate(zip(hist, starts)):
        th[i], why = judge(ncfg, h_i)
        if why is None:
            lanes.append(i)
        else:
            out[i] = w, f, NewtonResult(w, 0, rn[i], why, h_i, damp[i])
    if not lanes:
        return out
    if len(lanes) < len(rn):
        W, R, a, h, rhs = (x.take(lanes, 0) for x in (W, R, a, h, rhs))
    theta, a3, h3 = None, a[:, :, None], h[:, :, None]
    JI = jac_i(W)  # later Newton matrices reuse the residual's
    while True:
        if theta is None:  # after a compress or a damping
            theta = np.array([th[i] for i in lanes])[:, None]
        J = _eye(d) - a3 * JI + h3 * dphi_i_jac(W)
        if (not math.isfinite(J.sum()) and not np.isfinite(J).all()
                or d == 1 and _newton._pivot_too_small(J.ravel().tolist())):
            raise FloatingPointError
        delta = (-R / J[:, 0] if d == 1 else
                 np.array([_newton._lu_solve_checked(J_i, -r) for J_i, r in zip(J, R)]))
        W = W + theta * delta
        FE, FI, JI = phi_e(W), phi_i(W), jac_i(W)
        FT = FE + FI
        DI = (JI @ FT[:, :, None])[:, :, 0]
        R = W - a * FI + h * DI - rhs
        new = _newton._norms(R).tolist()
        if not all(map(math.isfinite, new)):
            raise FloatingPointError
        done, keep = [], []
        for j, (i, r) in enumerate(zip(lanes, new)):
            hist[i].append(r)
            t, why = judge(ncfg, hist[i], th[i])
            if t != th[i]:
                th[i], theta = t, None
            damp[i].append(t)
            (keep if why is None else done).append((j, why))
        if done:
            sel = [j for j, _ in done]
            Wd, FTd, DId = (W, FT, DI) if not keep else (x.take(sel, 0) for x in (W, FT, DI))
            DE = (jac_e(Wd) @ FTd[:, :, None])[:, :, 0]
            DP = DE + DId
            if not math.isfinite((FTd + DP).sum()) and not all_finite(
                    FE.take(sel, 0), FI.take(sel, 0), DE, DId):
                raise FloatingPointError
            for m, (j, why) in enumerate(done):
                i, w = lanes[j], W[j]
                f = FluxBundle(FE[j], FI[j], DE[m], DI[j], FT[j], DP[m])
                out[i] = w, f, NewtonResult(w, len(damp[i]), new[j], why, hist[i], damp[i])
            if not keep:
                return out
            sel = [j for j, _ in keep]
            lanes = [lanes[j] for j in sel]
            W, R, a, h, rhs, JI = (x.take(sel, 0) for x in (W, R, a, h, rhs, JI))
            a3, h3, theta = a[:, :, None], h[:, :, None], None


def _jacobi_blocks(p: SplitProblem, tab: TwoDerivativeTableau, dt: float, blocks,
                   ncfg: NewtonConfig, start: str | None, stacked: bool = False) -> list:
    """The stage systems of Jacobi blocks, corrections as (red term, blue
    (states, bundles)), then maybe a predictor as (source, None), solved by one
    ``_solve_stages`` when ``stacked``, else by one ``_solve_stage`` per stage;
    returns what ``correction_block`` and ``predictor_block`` return, per
    block. Every stage reads only the blocks' inputs: the stage-l quadrature
    reads the blue Phi and dPhi, and Newton starts at blue stage l
    (``start`` "hierarchical"), the red term or the source."""
    m = tab.s - 1
    corr = [(red, blue) for red, blue in blocks if blue is not None]
    src = blocks[-1][0] if len(corr) < len(blocks) else None
    a, rhs, starts = [dt] * (len(corr) * m), [], []
    with np.errstate(all="ignore"):
        if corr:
            blue = [fs for _, (_, fs) in corr]
            shape = len(corr), tab.s, p.dim
            phis = np.array([f.phi for fs in blue for f in fs]).reshape(shape)
            dphis = np.array([f.dphi for fs in blue for f in fs]).reshape(shape)
            quad = quadrature(tab, list(range(1, tab.s)), dt, phis, dphis)
            PI = np.array([[f.phi_i for f in fs[1:]] for fs in blue])
            DPI = np.array([[f.dphi_i for f in fs[1:]] for fs in blue])
            reds = np.array([red.w for red, _ in corr])[:, None]
            rhs.append((reds - dt * PI + 0.5 * dt * dt * DPI
                        + quad).reshape(-1, p.dim))
            if start == "hierarchical":
                starts = [(w, f) for _, (ws, fs) in corr for w, f in zip(ws[1:], fs[1:])]
            else:
                starts = [(red.w, red.f) for red, _ in corr for _ in range(m)]
        if src is not None:
            c = tab.c[1:] * dt
            a += c.tolist()
            rhs.append(src.w + c[:, None] * src.f.phi_e
                       + (0.5 * c * c)[:, None] * src.f.dphi_e)
            starts += [(src.w, src.f)] * m
        rhs = np.concatenate(rhs)
        if stacked:
            solved = _solve_stages(p, np.array(a), rhs, starts, ncfg)
        else:
            solved = [_solve_stage(p, a_i, rhs_i, StageSource(*s), ncfg)
                      for a_i, rhs_i, s in zip(a, rhs, starts)]
    outs = []
    for b, (src, _) in enumerate(blocks):
        ws, fs, results = zip(*solved[b * m:(b + 1) * m])
        outs.append(([src.w, *ws], [src.f, *fs], [_copy_result(src.w), *results]))
    return outs


def predictor_block(p: SplitProblem, tab: TwoDerivativeTableau, dt: float,
                    src: StageSource, ncfg: NewtonConfig):
    """All predictor stages from one source; returns (states, bundles, results).

    Stage l > 0 is an implicit second-order Taylor step: it solves
    w = w_src + c_l dt (Phi_I(w) + Phi_E(w_src))
          + (c_l dt)^2/2 (dPhi_E(w_src) - dPhi_I(w)); stage 0 copies the source.
    """
    return _jacobi_blocks(p, tab, dt, [(src, None)], ncfg, None)[0]


def correction_block(p: SplitProblem, tab: TwoDerivativeTableau, dt: float,
                     red: StageSource, blue_w, blue_f, gauss_seidel: bool,
                     ncfg: NewtonConfig, start: str):
    """One full correction sweep over the stages; returns (states, bundles, results).

    Stage 0 copies the red term; stage l > 0 adds to it the implicit
    difference against blue stage l and the quadrature (``_jacobi_blocks``).
    A Gauss-Seidel sweep solves stage by stage: its quadrature reads one
    (s, d) stack of Phi and dPhi whose row 0 is the red term's and whose row
    l is blue stage l's until stage l is solved, then the fresh fluxes.
    """
    if not gauss_seidel:
        return _jacobi_blocks(p, tab, dt, [(red, (blue_w, blue_f))], ncfg, start)[0]
    phis = np.array([red.f.phi, *(f.phi for f in blue_f[1:])])
    dphis = np.array([red.f.dphi, *(f.dphi for f in blue_f[1:])])
    ws, fs, results = [red.w], [red.f], [_copy_result(red.w)]
    with np.errstate(all="ignore"):
        for l in range(1, tab.s):
            i_l = quadrature(tab, l, dt, phis, dphis)
            rhs = red.w - dt * blue_f[l].phi_i + 0.5 * dt * dt * blue_f[l].dphi_i + i_l
            src = StageSource(blue_w[l], blue_f[l]) if start == "hierarchical" else red
            w, f, res = _solve_stage(p, dt, rhs, src, ncfg)
            phis[l], dphis[l] = f.phi, f.dphi
            ws.append(w)
            fs.append(f)
            results.append(res)
    return ws, fs, results


@dataclass
class Lane:
    """One iterate's tallies over a ``run_blocks`` pass (or a Limit run)."""

    k: int
    newton: int = 0
    cap_hits: int = 0
    last_w: Array | None = None   # last stage of the latest block
    updates: Array | None = None  # top iterate only: w^0 and its last stages
    steps: list | None = None     # traces only: (iters, residual norms, last w, cap hits)

    def add(self, n: int, last_w: Array, results, tally) -> None:
        """Tally step n's block: ``tally`` is (Newton iterations, cap hits)
        of its solves, ``results`` gives the residual norms of a trace."""
        iters, cap_hits = tally
        self.newton += iters
        self.cap_hits += cap_hits
        self.last_w = last_w
        if self.updates is not None:
            self.updates[n + 1] = last_w
        if self.steps is not None:
            self.steps.append((iters, [r.residual_norm for r in results], last_w,
                               cap_hits))


def _tally(results) -> tuple:
    """(Newton iterations, iteration-cap hits) over ``results``."""
    return (sum(r.iters for r in results),
            sum(r.converged_by == "iter_cap" for r in results))


# Stage solves a wavefront needs to be stacked: against one _solve_stage per
# lane the kernel ran 0.44-0.77x as fast at 1 lane, 0.84-1.67x at 3, 0.82-1.62x
# at 4 and 1.12-3.29x at 6-9 (scalar_pow, pareschi_russo, arenstorf: lanes of
# Alg1 q=8 kmax=9 runs; 2-vCPU VM). Only arenstorf is slower at 3 and 4.
_MIN_STACK = 4
_CALLBACKS = ("phi_e", "phi_i", "jac_e", "jac_i", "dphi_i_jac")


def _reads_same(red_w: Array, blue_w, read) -> bool:
    """Whether a correction block's red state and blue states hold the bits
    of those another block ``read`` (its (red state, blue states, results))."""
    return all(a is b or a.tobytes() == b.tobytes()
               for a, b in zip((red_w, *blue_w), (read[0], *read[1])))


def run_blocks(p: SplitProblem, cfg: SolverConfig, seed: StageSource, iterates,
               receive=None, send=None, keep_traces: bool = False) -> list:
    """Compute Block(n, k) for every step n and every k in ``iterates``, one
    wavefront of the DAG at a time; return one Lane per iterate.

    A block reads what ``dependencies`` names: the stages of Block(n, k-1)
    (the blue input, k >= 1) and the last stage of its step n-1 source (the
    red term, or the predictor's source for k = 0); ``seed`` stands in for
    every block of step -1. Blocks of ``iterates`` are read from this loop's
    own store, every other input through ``receive(block)``, which returns its
    (states, bundles); of a step n-1 source only the last stage is read.
    ``send(block, states, bundles)`` sees each block once its wavefront, the
    blocks with 2n + k = t (n + k = t for LO), is done; a pipeline worker
    meets one block per wavefront, in (n, k) order.

    A block's outputs are a pure function of its input states: every bundle
    in the loop is ``eval_bundle`` of its own state (the ``_solve_stage``
    contract), so the loop never has to look at bundles to know two inputs
    agree. Once the sweeps of a step sit at their fixed point, a correction
    Block(n, k) reads the state bits Block(n, k-1) read; when k-1 is a
    correction this loop computes, the loop then hands out Block(n, k-1)'s
    states, bundles and Newton results again instead of solving, which is
    bitwise what the solve would give.

    A wavefront's blocks left to solve run one by one, or, as Jacobi sweeps
    (Alg1, LO) of a problem with stacked callbacks holding ``_MIN_STACK`` or
    more stage solves, through one stacked ``_jacobi_blocks`` call, the
    builder behind ``predictor_block`` and ``correction_block``: the same bits.
    """
    tab = builtin(cfg.q)
    dt = p.t_end / cfg.n_steps
    gauss_seidel = cfg.variant == "Alg2"
    stackable = not gauss_seidel and all(hasattr(getattr(p, cb), "stack")
                                         for cb in _CALLBACKS)
    slope = 1 if cfg.variant == "LO" else 2
    back = {k: next(d.k for d in dependencies(Block(1, k), cfg.variant, cfg.kmax)
                    if d.n == 0)
            for k in iterates}
    lanes = {k: Lane(k, steps=[] if keep_traces else None) for k in iterates}
    if cfg.kmax in lanes:
        top = lanes[cfg.kmax].updates = np.empty((cfg.n_steps + 1, p.dim))
        top[0] = seed.w
    by_step = sorted(lanes, reverse=True)  # a wavefront's blocks, earliest step first
    prev = last = {}  # (n, k) -> (states, bundles, what a correction read, its tally)
    for t in range(slope * (cfg.n_steps - 1) + cfg.kmax + 1):
        done = {**prev, **last}  # the blocks of wavefronts t-2 and t-1, all it reads
        front, cur = [], {}  # front: (n, k, source or red term, blue input, outputs of a skip)
        for k in by_step:
            n, off = divmod(t - k, slope)
            if off or not 0 <= n < cfg.n_steps:
                continue
            j = back[k]
            if n == 0:
                src = seed
            else:
                ws, fs = done[n - 1, j][:2] if j in lanes else receive(Block(n - 1, j))
                src = StageSource(ws[-1], fs[-1])
            blue = read = outputs = None
            if k:
                if k - 1 in lanes:
                    *blue, read = done[n, k - 1]
                else:
                    blue = receive(Block(n, k - 1))
                if read is not None and _reads_same(src.w, blue[0], read):
                    outputs = *blue, *read[2:]
            front.append((n, k, src, blue, outputs))
        todo = [b for b in front if b[4] is None]
        if stackable and len(todo) * (tab.s - 1) >= _MIN_STACK:
            outs = _jacobi_blocks(p, tab, dt, [(b[2], b[3]) for b in todo], cfg.newton,
                                  cfg.corrector_start, stacked=True)
        else:
            outs = [predictor_block(p, tab, dt, src, cfg.newton) if blue is None
                    else correction_block(p, tab, dt, src, *blue, gauss_seidel,
                                          cfg.newton, cfg.corrector_start)
                    for _, _, src, blue, _ in todo]
        outs = iter(outs)
        for n, k, src, blue, outputs in front:
            ws, fs, results, tally = outputs or (*next(outs), None)
            tally = tally or _tally(results)
            cur[n, k] = ws, fs, None if blue is None else (src.w, blue[0], results, tally)
            if send is not None:
                send(Block(n, k), ws, fs)
            lanes[k].add(n, ws[-1], results, tally)
        prev, last = last, cur
    return list(lanes.values())


def run_result(p: SplitProblem, cfg: SolverConfig, lanes, reference,
               wallclock: float, sweeps: list | None = None) -> RunResult:
    """Merge the Lanes of every iterate, from ``run_blocks`` passes or a Limit
    run (with its ``sweeps`` per step), into the run's result."""
    lanes = sorted(lanes, key=lambda lane: lane.k)
    final_last = [lane.last_w for lane in lanes]
    traces = None
    if lanes[0].steps is not None:
        traces = []
        for n, step in enumerate(zip(*(lane.steps for lane in lanes))):
            iters, rnorms, last_w, cap_hits = zip(*step)
            traces.append(StepTrace(newton_iters=np.array(iters),
                                    residual_norms=list(rnorms),
                                    last_stage_w=list(last_w),
                                    iter_cap_hits=sum(cap_hits),
                                    sweeps=0 if sweeps is None else sweeps[n]))
    return RunResult(config=cfg, t_end=p.t_end, updates=lanes[-1].updates,
                     final_last_w=final_last,
                     errors=_iterate_errors(p, reference, final_last),
                     newton_per_iterate=np.array([lane.newton for lane in lanes]),
                     iter_cap_hits=sum(lane.cap_hits for lane in lanes),
                     wallclock=wallclock, traces=traces, sweeps_per_step=sweeps)


def known_reference(p: SplitProblem, reference=None) -> Array | None:
    """The state errors are measured against: ``reference`` when given, else
    the problem's exact solution at t_end, else its recorded end state; None
    without any."""
    if reference is not None:
        return np.asarray(reference, dtype=float)
    if p.exact is not None:
        return np.asarray(p.exact(p.t_end), dtype=float)
    return p.ref_t_end


def _iterate_errors(p: SplitProblem, reference, final_last) -> Array | None:
    """2-norm error of each final-stage state against ``known_reference``."""
    ref = known_reference(p, reference)
    if ref is None:
        return None
    return np.array([float(np.linalg.norm(w - ref)) for w in final_last])


def integrate(p: SplitProblem, cfg: SolverConfig, reference=None,
              keep_traces: bool = False) -> RunResult:
    """Run n_steps uniform steps; report per-iterate errors at t_end.

    ``reference`` overrides the problem's exact solution as the state the
    per-iterate 2-norm errors are measured against; with neither available
    the errors field is None.
    """
    if cfg.variant == "Limit":
        return limit_integrate(p, cfg, reference=reference, keep_traces=keep_traces)
    seed = StageSource(p.w0.copy(), eval_bundle(p, p.w0))
    t0 = time.perf_counter()
    lanes = run_blocks(p, cfg, seed, range(cfg.kmax + 1), keep_traces=keep_traces)
    return run_result(p, cfg, lanes, reference, time.perf_counter() - t0)


def limit_integrate(p: SplitProblem, cfg: SolverConfig, reference=None,
                    keep_traces: bool = False) -> RunResult:
    """Per step, sweep corrections against a fixed red term (the accepted
    update) until the max-norm stage change drops below limit_tol."""
    if cfg.variant != "Limit":
        raise ValueError("limit_integrate requires variant='Limit'")
    tab = builtin(cfg.q)
    dt = p.t_end / cfg.n_steps
    src = StageSource(p.w0.copy(), eval_bundle(p, p.w0))
    lane = Lane(0, updates=np.empty((cfg.n_steps + 1, p.dim)),
                steps=[] if keep_traces else None)
    lane.updates[0] = src.w
    sweeps_per_step = []

    t0 = time.perf_counter()
    for n in range(cfg.n_steps):
        ws, fs, solved = predictor_block(p, tab, dt, src, cfg.newton)
        for sweep in range(1, cfg.limit_max_sweeps + 1):
            new_ws, new_fs, results = correction_block(
                p, tab, dt, src, ws, fs, True, cfg.newton, cfg.corrector_start)
            solved += results
            delta = max(float(np.max(np.abs(a - b))) for a, b in zip(new_ws, ws))
            ws, fs = new_ws, new_fs
            if delta <= cfg.limit_tol:
                break
        else:
            raise NoConvergenceError(
                f"limit sweep at step {n} still changing by {delta:.3e} "
                f"after {cfg.limit_max_sweeps} sweeps")
        sweeps_per_step.append(sweep)
        lane.add(n, ws[-1], results, _tally(solved))
        src = StageSource(ws[-1], fs[-1])
    return run_result(p, cfg, [lane], reference, time.perf_counter() - t0,
                      sweeps=sweeps_per_step)


def adaptive_kmax(p: SplitProblem, base_cfg: SolverConfig, start_kmax: int,
                  reference=None, cap: int = 4096):
    """Double kmax until the final-iterate error stops changing by more than
    1% relative; returns (kmax_used, converged RunResult)."""
    if start_kmax < 1:
        raise ValueError("start_kmax must be at least 1")
    kmax = start_kmax
    run = integrate(p, replace(base_cfg, kmax=kmax), reference=reference)
    if run.errors is None:
        raise ValueError("adaptive_kmax needs an exact or reference solution")
    err_prev = float(run.errors[-1])
    while True:
        if 2 * kmax > cap:
            raise CapExceededError(
                f"doubling past kmax={kmax} exceeds the ceiling {cap} "
                "with the 1% criterion still unmet")
        kmax *= 2
        run = integrate(p, replace(base_cfg, kmax=kmax), reference=reference)
        err = float(run.errors[-1])
        diff = abs(err - err_prev)
        if diff == 0.0 or (err > 0 and diff / err <= 0.01):
            return kmax, run
        err_prev = err
