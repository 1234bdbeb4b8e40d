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

Stage solves delegate to the damped Newton iteration. A block is one (s, 7, d)
array, per stage its state and the fluxes there (w, Phi_E, Phi_I, dPhi_E,
dPhi_I, Phi, dPhi), from the solves to the pipeline's pipes; fluxes are
evaluated once per stage, so a pipelined run does bit-identical work.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (Array, NonFiniteError, SplitProblem, all_finite, eval_bundle,
                   fd_jacobian)
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


def eval_stage(p: SplitProblem, w: Array) -> Array:
    """The (7, d) stage at state ``w``: w, then ``eval_bundle``'s six parts."""
    f = eval_bundle(p, w)
    return np.array([w, f.phi_e, f.phi_i, f.dphi_e, f.dphi_i, f.phi, f.dphi])


def _solve_stage(p: SplitProblem, a: float, rhs: Array, start: Array,
                 ncfg: NewtonConfig, at_start: list | None = None):
    """Solve w - a Phi_I(w) + a^2/2 dPhi_I(w) = rhs from the (7, d) stage
    ``start``; return (stage, result).

    Newton starts at state ``start[0]`` and its first residual reads Phi_I and
    dPhi_I from the start's rows, so the start state costs no callback; Phi_I'
    and d(dPhi_I)/dw there are evaluated only if Newton takes an iteration,
    and once per block for stages that start at one stage object (the block's
    solves share ``at_start``, [(stage, Phi_I', d(dPhi_I)/dw)]); a solve that
    converges at its start returns ``start`` itself. Every other Newton state
    is evaluated once: the residual calls Phi_E, Phi_I and Phi_I' one time
    each and keeps them, with Phi and dPhi_I = Phi_I' Phi, as the last
    evaluation. The Newton matrix reuses that Phi_I' (Newton asks for it only
    at the state the residual saw last), and the converged stage is the last
    evaluation plus dPhi_E = Phi_E' Phi, bitwise ``eval_stage`` at the solved
    state. The evaluation lives in this call, so concurrent blocks share
    nothing. The residual Jacobian is assembled analytically when the problem
    carries d(dPhi_I)/dw, otherwise by finite differences of the residual map.
    Callers run it under ``np.errstate(all="ignore")``, once per block:
    overflow shows up as the NaN/Inf that Newton and the flux check turn into
    NonFiniteError.
    """
    half_a2 = 0.5 * a * a
    w0 = start[0]
    # (w, Phi_E, Phi_I, Phi, Phi_I', dPhi_I) at the last state past the start
    last = (None,) * 6

    def F(w):
        nonlocal last
        if w is w0:
            return w - a * start[2] + half_a2 * start[4] - rhs
        fe = p.phi_e(w)
        fi = p.phi_i(w)
        ji = p.jac_i(w)
        ftot = fe + fi
        di = ji @ ftot
        last = (w, fe, fi, ftot, ji, di)
        return w - a * fi + half_a2 * di - rhs

    if p.dphi_i_jac is not None:
        eye = _eye(p.dim)
        at_start = [(None,)] if at_start is None else at_start

        def J(w):
            if w is not w0:
                ji = last[4] if last[0] is w else p.jac_i(w)
                return eye - a * ji + half_a2 * p.dphi_i_jac(w)
            if at_start[0][0] is not start:
                at_start[0] = start, p.jac_i(w), p.dphi_i_jac(w)
            _, ji, dji = at_start[0]
            return eye - a * ji + half_a2 * dji
    else:
        def J(w):
            return fd_jacobian(F, w)

    res = _newton.solve(F, J, w0, ncfg)
    if res.w is w0:
        return start, res
    if last[0] is not res.w:  # never, while newton.solve keeps its contract
        F(res.w)
    w, fe, fi, ftot, _, di = last
    de = p.jac_e(w) @ ftot
    dphi = de + di
    if not math.isfinite((ftot + dphi).sum()) and not all_finite(fe, fi, de, di):
        raise NonFiniteError(f"flux evaluation produced NaN/Inf at w={w!r}")
    return np.array([w, fe, fi, de, di, ftot, dphi]), res


def _solve_stages(p: SplitProblem, a: Array, rhs: Array, starts, ncfg: NewtonConfig):
    """``_solve_stage`` for B lanes at once on the callbacks' stacked forms:
    lane i solves w - a[i] Phi_I(w) + a[i]^2/2 dPhi_I(w) = rhs[i] from the
    stage ``starts[i]`` of the (B, 7, d) ``starts``; returns the (B, 7, d)
    solved stages and one result per lane.

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
        solved = [_solve_stage(p, *lane, ncfg) for lane in zip(a, rhs, starts)]
        return np.array([stage for stage, _ in solved]), [res for _, res in solved]


def _stacked_newton(p: SplitProblem, a: Array, rhs: Array, starts, ncfg: NewtonConfig):
    # Per-lane norms and dampings are Python floats, bitwise numpy's.
    # A finite sum has finite terms: a finite J.sum() passes J, a finite sum
    # of phi + dphi the four flux parts; other sums fall to the exact check.
    phi_e, phi_i, jac_e, jac_i, dphi_i_jac = (getattr(p, cb).stack for cb in _CALLBACKS)
    d = rhs.shape[1]
    W = starts[:, 0].copy()
    a = a[:, None]
    h = 0.5 * a * a
    R = W - a * starts[:, 2] + h * starts[:, 4] - rhs
    rn = _newton._norms(R).tolist()
    if not all(map(math.isfinite, rn)):
        raise FloatingPointError
    out, results = starts.copy(), [None] * len(rn)  # a lane retiring at its start keeps it
    hist, damp, th, lanes = [[r] for r in rn], [[] for _ in rn], [None] * len(rn), []
    for i, h_i in enumerate(hist):
        th[i], why = judge(ncfg, h_i)
        if why is None:
            lanes.append(i)
        else:
            results[i] = NewtonResult(W[i], 0, rn[i], why, h_i, damp[i])
    if not lanes:
        return out, results
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
            Wd, FEd, FId, FTd, DId = ((W, FE, FI, FT, DI) if not keep else
                                      (x.take(sel, 0) for x in (W, FE, FI, FT, DI)))
            DE = (jac_e(Wd) @ FTd[:, :, None])[:, :, 0]
            DP = DE + DId
            if not math.isfinite((FTd + DP).sum()) and not all_finite(FEd, FId, DE, DId):
                raise FloatingPointError
            rows = np.array((Wd, FEd, FId, DE, DId, FTd, DP))  # twice as fast as np.stack
            out[[lanes[j] for j in sel]] = rows.swapaxes(0, 1)
            for j, why in done:
                i = lanes[j]
                results[i] = NewtonResult(W[j], len(damp[i]), new[j], why, hist[i], damp[i])
            if not keep:
                return out, results
            sel = [j for j, _ in keep]
            lanes = [lanes[j] for j in sel]
            W, R, a, h, rhs, JI = (x.take(sel, 0) for x in (W, R, a, h, rhs, JI))
            a3, h3, theta = a[:, :, None], h[:, :, None], None


def _jacobi_blocks(p: SplitProblem, tab: TwoDerivativeTableau, dt: float, blocks,
                   ncfg: NewtonConfig, start: str | None, stacked: bool = False) -> list:
    """The stage systems of Jacobi blocks, corrections as (red term, blue
    block), then maybe a predictor as (source, None), solved by one
    ``_solve_stages`` when ``stacked``, else (one block) by one
    ``_solve_stage`` per stage from the inputs' own stage objects, which its
    ``at_start`` memo keys on; returns what ``correction_block`` and
    ``predictor_block`` return, per block. The blue blocks stack into one
    array, read by column: the stage-l quadrature reads the blue Phi and dPhi,
    and Newton starts at blue stage l (``start`` "hierarchical"), the red
    term or the source."""
    m, d = tab.s - 1, p.dim
    corr = [blue for _, blue in blocks if blue is not None]
    out = np.empty((len(blocks), tab.s, 7, d))
    out[:, 0] = [src for src, _ in blocks]
    a, rhs = [dt] * (len(corr) * m), []
    with np.errstate(all="ignore"):
        if corr:
            blue = np.array(corr)
            # contiguous copies: matmul's bits depend on layout
            quad = quadrature(tab, list(range(1, tab.s)), dt, blue[:, :, 5].copy(),
                              blue[:, :, 6].copy())
            rhs.append((out[:len(corr), :1, 0] - dt * blue[:, 1:, 2]
                        + 0.5 * dt * dt * blue[:, 1:, 4] + quad).reshape(-1, d))
        if len(corr) < len(blocks):
            src, c = out[-1, 0], tab.c[1:] * dt
            a += c.tolist()
            rhs.append(src[0] + c[:, None] * src[1] + (0.5 * c * c)[:, None] * src[3])
        rhs = np.concatenate(rhs)
        if stacked:
            starts = out[:, :1].repeat(m, 1)
            if corr and start == "hierarchical":
                starts[:len(corr)] = blue[:, 1:]
            solved, results = _solve_stages(p, np.array(a), rhs, starts.reshape(-1, 7, d), ncfg)
            out[:, 1:] = solved.reshape(len(blocks), m, 7, d)
        else:
            (src, blue), at_start, results = blocks[0], [(None,)], []
            for l in range(1, tab.s):
                lane = blue[l] if blue is not None and start == "hierarchical" else src
                out[0, l], res = _solve_stage(p, a[l - 1], rhs[l - 1], lane, ncfg, at_start)
                results.append(res)
    return [(out[b], [_copy_result(src[0]), *results[b * m:(b + 1) * m]])
            for b, (src, _) in enumerate(blocks)]


def predictor_block(p: SplitProblem, tab: TwoDerivativeTableau, dt: float,
                    src: Array, ncfg: NewtonConfig):
    """All predictor stages from the source stage ``src``; returns (block, results).

    Stage l > 0 is an implicit second-order Taylor step: it solves
    w = w_src + c_l dt (Phi_I(w) + Phi_E(w_src))
          + (c_l dt)^2/2 (dPhi_E(w_src) - dPhi_I(w)); stage 0 copies the source.
    """
    return _jacobi_blocks(p, tab, dt, [(src, None)], ncfg, None)[0]


def correction_block(p: SplitProblem, tab: TwoDerivativeTableau, dt: float,
                     red: Array, blue: Array, gauss_seidel: bool,
                     ncfg: NewtonConfig, start: str):
    """One full correction sweep over blue's stages; returns (block, results).

    Stage 0 copies the red term; stage l > 0 adds to it the implicit
    difference against blue stage l and the quadrature (``_jacobi_blocks``).
    A Gauss-Seidel sweep solves stage by stage: its quadrature reads one
    (s, d) stack of Phi and dPhi whose row 0 is the red term's and whose row
    l is blue stage l's until stage l is solved, then the fresh fluxes.
    """
    if not gauss_seidel:
        return _jacobi_blocks(p, tab, dt, [(red, blue)], ncfg, start)[0]
    out = np.concatenate((red[None], blue[1:]))  # new: a received blue is read-only
    phis, dphis = out[:, 5].copy(), out[:, 6].copy()
    results, at_start = [_copy_result(red[0])], [(None,)]
    with np.errstate(all="ignore"):
        base = red[0] - dt * blue[1:, 2] + 0.5 * dt * dt * blue[1:, 4]
        for l in range(1, tab.s):
            rhs = base[l - 1] + quadrature(tab, l, dt, phis, dphis)
            lane = blue[l] if start == "hierarchical" else red
            out[l], res = _solve_stage(p, dt, rhs, lane, ncfg, at_start)
            phis[l], dphis[l] = out[l, 5:]
            results.append(res)
    return out, results


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
            # a copy, so a trace does not keep the state's whole block alive
            self.steps.append((iters, [r.residual_norm for r in results], last_w.copy(),
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


def _reads_same(red: Array, blue: Array, read) -> bool:
    """Whether a correction block's red term and blue block hold the state
    bits of those another block ``read`` (its (red term, blue block, ...))."""
    return (red[0].tobytes() == read[0][0].tobytes()
            and (blue is read[1] or blue[:, 0].tobytes() == read[1][:, 0].tobytes()))


def run_blocks(p: SplitProblem, cfg: SolverConfig, seed: Array, iterates,
               receive=None, send=None, keep_traces: bool = False) -> list:
    """Compute Block(n, k) for every step n and every k in ``iterates``, one
    wavefront of the DAG at a time; return one Lane per iterate.

    A block, one C-contiguous (s, 7, d) array of stages, reads what
    ``dependencies`` names: Block(n, k-1) (the blue input, k >= 1) and the
    last stage of its step n-1 source (the red term, or the predictor's source
    for k = 0); the stage ``seed`` stands in for that at step -1. Blocks of
    ``iterates`` are read from this loop's own store, every other input
    through ``receive(block)``, which returns its array. ``send(block,
    stages)`` sees each block once its wavefront, the blocks with 2n + k = t
    (n + k = t for LO), is done; a pipeline worker meets one block per
    wavefront, in (n, k) order.

    A block's outputs are a pure function of its input states: a stage's
    other rows are ``eval_stage``'s at its state (the ``_solve_stage``
    contract), so the loop never has to look at them to know two inputs
    agree. Once the sweeps of a step sit at their fixed point, a correction
    Block(n, k) reads the state bits Block(n, k-1) read; when k-1 is a
    correction this loop computes, the loop then hands out Block(n, k-1) and
    its Newton results again instead of solving, which is bitwise what the
    solve would give.

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
        top[0] = seed[0]
    by_step = sorted(lanes, reverse=True)  # a wavefront's blocks, earliest step first
    # k -> (block, what a correction read, its results, its tally) of its
    # latest block, all a wavefront reads of its own, as it reads all before
    # it writes
    latest = {}
    for t in range(slope * (cfg.n_steps - 1) + cfg.kmax + 1):
        front = []  # (n, k, source or red term, blue input, outputs of a skip)
        for k in by_step:
            n, off = divmod(t - k, slope)
            if off or not 0 <= n < cfg.n_steps:
                continue
            j = back[k]
            src = seed if n == 0 else (
                latest[j][0] if j in lanes else receive(Block(n - 1, j)))[-1]
            blue = read = outputs = None
            if k:
                if k - 1 in lanes:
                    blue, read = latest[k - 1]
                else:
                    blue = receive(Block(n, k - 1))
                if read is not None and _reads_same(src, blue, read):
                    outputs = blue, *read[2:]
            front.append((n, k, src, blue, outputs))
        todo = [b for b in front if b[4] is None]
        if stackable and len(todo) * (tab.s - 1) >= _MIN_STACK:
            outs = _jacobi_blocks(p, tab, dt, [(b[2], b[3]) for b in todo], cfg.newton,
                                  cfg.corrector_start, stacked=True)
        else:
            outs = [predictor_block(p, tab, dt, src, cfg.newton) if blue is None
                    else correction_block(p, tab, dt, src, blue, gauss_seidel,
                                          cfg.newton, cfg.corrector_start)
                    for _, _, src, blue, _ in todo]
        outs = iter(outs)
        for n, k, src, blue, outputs in front:
            block, results, tally = outputs or (*next(outs), None)
            tally = tally or _tally(results)
            latest[k] = block, None if blue is None else (src, blue, results, tally)
            if send is not None:
                send(Block(n, k), block)
            lanes[k].add(n, block[-1, 0], results, tally)
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
    seed = eval_stage(p, p.w0)
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
    src = eval_stage(p, p.w0)
    lane = Lane(0, updates=np.empty((cfg.n_steps + 1, p.dim)),
                steps=[] if keep_traces else None)
    lane.updates[0] = src[0]
    sweeps_per_step = []

    t0 = time.perf_counter()
    for n in range(cfg.n_steps):
        block, solved = predictor_block(p, tab, dt, src, cfg.newton)
        for sweep in range(1, cfg.limit_max_sweeps + 1):
            new, results = correction_block(p, tab, dt, src, block, True, cfg.newton,
                                            cfg.corrector_start)
            solved += results
            delta = float(np.max(np.abs(new[:, 0] - block[:, 0])))
            block = new
            if delta <= cfg.limit_tol:
                break
        else:
            raise NoConvergenceError(
                f"limit sweep at step {n} still changing by {delta:.3e} "
                f"after {cfg.limit_max_sweeps} sweeps")
        sweeps_per_step.append(sweep)
        lane.add(n, block[-1, 0], results, _tally(solved))
        src = block[-1]
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
