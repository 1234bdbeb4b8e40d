"""Damped Newton iteration for the per-stage implicit systems.

Each step solves J(w) delta = -F(w) with a dense LU factorization and updates
w <- w + theta * delta. ``judge`` holds the rule shared with the solver's
stacked kernel: theta starts at 1 and is halved whenever a trial step fails to
keep the residual norm below growth_threshold times the previous one (it never
recovers within one solve), and a solve ends on a relative residual drop, an
absolute residual, or the iteration cap (reported as converged but flagged).
The order of evaluation is fixed (see ``solve``), so a caller can evaluate
each Newton state once and share it between the residual and its Jacobian.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgesv, dgetrs

from .core import Array, NonFiniteError


class SingularJacobianError(RuntimeError):
    """LU factorization met a pivot too small to divide by."""


_PIVOT_FLOOR = 1e-300


@dataclass(frozen=True)
class NewtonConfig:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-14
    max_iter: int = 1000
    growth_threshold: float = 0.9
    damping_init: float = 1.0
    damping_factor: float = 0.5

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0 < self.growth_threshold < 1:
            raise ValueError("growth_threshold must lie in (0, 1)")
        if not 0 < self.damping_init <= 1:
            raise ValueError("damping_init must lie in (0, 1]")
        if not 0 < self.damping_factor < 1:
            raise ValueError("damping_factor must lie in (0, 1)")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer, at least 1")


@dataclass
class NewtonResult:
    w: Array
    iters: int
    residual_norm: float
    converged_by: str  # "relative" | "absolute" | "iter_cap"
    residual_history: list = field(default_factory=list)
    damping_history: list = field(default_factory=list)


def _pivot_too_small(pivots: list) -> bool:
    """Whether abs(pivots).min() < 1e-300, where numpy's min propagates NaN."""
    return min(map(abs, pivots)) < _PIVOT_FLOOR and not any(map(math.isnan, pivots))


def _lu_solve_checked(J: Array, rhs: Array) -> Array:
    """Solve J x = rhs by partial-pivoting LU; raise on a pivot below 1e-300.

    One call of LAPACK's ``dgesv``, which factors J and solves as ``dgetrf``
    and then ``dgetrs`` would: bitwise the same LU and solution
    (``tests/test_newton.py`` checks both), in one f2py call instead of two.
    An exactly singular J (info > 0) leaves a zero pivot, which the floor
    check catches, unless a NaN pivot hides it; dgesv then leaves x unsolved,
    so ``dgetrs`` gives the NaN solution it always gave.
    """
    lu, piv, x, info = dgesv(J, rhs)
    if _pivot_too_small(lu.diagonal().tolist()):
        raise SingularJacobianError("LU pivot below 1e-300")
    return x if info == 0 else dgetrs(lu, piv, rhs)[0]


def _norm(r: Array) -> float:
    # float(np.linalg.norm(r)) for a 1-D float r, bitwise, without its wrapper
    return math.sqrt(r.dot(r))


def _norms(R: Array) -> Array:
    # per row, bitwise _norm; (R * R).sum(1) is not
    return np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])


def judge(cfg: NewtonConfig, history: list, theta: float | None = None):
    """(damping, verdict) of a solve with residual norms ``history``, start
    first; a verdict of None means iterate on. At the start: damping_init, and
    "absolute" or None. After an iteration run with damping ``theta``: theta,
    cut unless the residual fell below growth_threshold times the one before,
    and "absolute", "relative", "iter_cap" or None."""
    r, it = history[-1], len(history) - 1
    if not it:
        return cfg.damping_init, "absolute" if r <= cfg.abs_tol else None
    if r > cfg.growth_threshold * history[-2]:
        theta *= cfg.damping_factor
    return theta, ("absolute" if r <= cfg.abs_tol else
                   "relative" if r / history[0] <= cfg.rel_tol else
                   "iter_cap" if it == cfg.max_iter else None)


def solve(F, J, w0: Array, cfg: NewtonConfig = NewtonConfig()) -> NewtonResult:
    """Damped Newton iterate from w0 until ``judge`` returns a verdict.

    ``F`` maps a state to the residual vector, ``J`` maps a state to the d x d
    residual Jacobian; ``J`` is called only at the state ``F`` evaluated last,
    and the returned ``w`` is the last state ``F`` evaluated. ``F`` first sees
    ``w0`` itself (not a copy) when it is a float array, and that same object
    is returned when no iteration runs; Newton never updates a state in place.
    Raises SingularJacobianError on a degenerate linearization and
    NonFiniteError if the residual or the Jacobian holds NaN/Inf.

    A residual's entries are checked only when its 2-norm is not finite, the
    Newton matrix's only when its sum is not: a finite norm or sum implies
    finite entries, and finite entries whose norm or sum overflows to inf
    still pass, exactly as an entry-wise check decides.
    """
    w = np.asarray(w0, dtype=float)
    r = np.asarray(F(w), dtype=float)
    rnorm = _norm(r)
    if not math.isfinite(rnorm) and not np.isfinite(r).all():
        raise NonFiniteError("non-finite residual at the Newton starting point")
    history, dampings = [rnorm], []
    theta, why = judge(cfg, history)
    while why is None:
        Jw = np.asarray(J(w), dtype=float)
        if not math.isfinite(Jw.sum()) and not np.isfinite(Jw).all():
            raise NonFiniteError("non-finite Jacobian in Newton iteration")
        delta = _lu_solve_checked(Jw, -r)
        w = w + (delta if theta == 1.0 else theta * delta)
        r = np.asarray(F(w), dtype=float)
        rnorm = _norm(r)
        if not math.isfinite(rnorm) and not np.isfinite(r).all():
            raise NonFiniteError("non-finite residual in Newton iteration")
        history.append(rnorm)
        theta, why = judge(cfg, history, theta)
        dampings.append(theta)
    return NewtonResult(w, len(history) - 1, rnorm, why, history, dampings)
