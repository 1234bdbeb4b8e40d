"""Damped Newton iteration for the per-stage implicit systems.

Each step solves J(w) delta = -F(w) with a dense LU factorization and updates
w <- w + theta * delta. The damping theta starts at 1 and is halved whenever a
trial step fails to keep the residual norm below growth_threshold times the
previous one; it never recovers within one solve. Convergence is declared on
a relative residual drop, on an absolute residual, or at the iteration cap
(the cap is reported as converged but flagged so callers can count it).
The order of evaluation is fixed (see ``solve``), so a caller can evaluate
each Newton state once and share it between the residual and its Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

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
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.growth_threshold < 1:
            raise ValueError("growth_threshold must lie in (0, 1)")
        if not 0 < self.damping_factor < 1:
            raise ValueError("damping_factor must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class NewtonResult:
    w: Array
    iters: int
    residual_norm: float
    converged_by: str  # "relative" | "absolute" | "iter_cap"
    residual_history: list = field(default_factory=list)
    damping_history: list = field(default_factory=list)


def _lu_solve_checked(J: Array, rhs: Array) -> Array:
    """Solve J x = rhs by partial-pivoting LU; raise on a pivot below 1e-300.

    Calls the LAPACK routines behind ``scipy.linalg.lu_factor``/``lu_solve``
    directly: bitwise the same result, without the wrappers, which cost more
    than factoring a d <= 4 system. An exactly singular J (dgetrf info > 0)
    leaves a zero pivot, which the floor check catches. A NaN pivot never
    trips the floor, as under ``abs(diag).min()``, which propagates NaN.
    """
    lu, piv, _ = dgetrf(J)
    diag = lu.diagonal().tolist()
    if min(map(abs, diag)) < _PIVOT_FLOOR and not any(map(math.isnan, diag)):
        raise SingularJacobianError("LU pivot below 1e-300")
    return dgetrs(lu, piv, rhs)[0]


def _norm(r: Array) -> float:
    # float(np.linalg.norm(r)) for a 1-D float r, bitwise, without its wrapper
    return math.sqrt(r.dot(r))


def solve(F, J, w0: Array, cfg: NewtonConfig = NewtonConfig()) -> NewtonResult:
    """Damped Newton iterate from w0 until a convergence criterion fires.

    ``F`` maps a state to the residual vector, ``J`` maps a state to the d x d
    residual Jacobian; ``J`` is called only at the state ``F`` evaluated last,
    and the returned ``w`` is the last state ``F`` evaluated. ``F`` first sees
    ``w0`` itself (not a copy) when it is a float array, and that same object
    is returned when no iteration runs; Newton never updates a state in place.
    Raises SingularJacobianError on a degenerate linearization and
    NonFiniteError if the residual or the Jacobian holds NaN/Inf.

    A residual's entries are checked only when its 2-norm is not finite: a
    finite norm implies finite entries, and a finite residual whose norm
    overflows to inf still passes, exactly as an entry-wise check decides.
    """
    w = np.asarray(w0, dtype=float)
    r = np.asarray(F(w), dtype=float)
    rnorm = _norm(r)
    if not math.isfinite(rnorm) and not np.isfinite(r).all():
        raise NonFiniteError("non-finite residual at the Newton starting point")
    rnorm0 = rnorm
    history = [rnorm]
    dampings = []

    if rnorm <= cfg.abs_tol:
        return NewtonResult(w, 0, rnorm, "absolute", history, dampings)

    theta = cfg.damping_init
    for it in range(1, cfg.max_iter + 1):
        Jw = np.asarray(J(w), dtype=float)
        if not np.isfinite(Jw).all():
            raise NonFiniteError("non-finite Jacobian in Newton iteration")
        delta = _lu_solve_checked(Jw, -r)
        w = w + theta * delta
        r = np.asarray(F(w), dtype=float)
        new_norm = _norm(r)
        if not math.isfinite(new_norm) and not np.isfinite(r).all():
            raise NonFiniteError("non-finite residual in Newton iteration")
        if new_norm > cfg.growth_threshold * rnorm:
            theta *= cfg.damping_factor
        dampings.append(theta)
        rnorm = new_norm
        history.append(rnorm)
        if rnorm <= cfg.abs_tol:
            return NewtonResult(w, it, rnorm, "absolute", history, dampings)
        if rnorm / rnorm0 <= cfg.rel_tol:
            return NewtonResult(w, it, rnorm, "relative", history, dampings)

    return NewtonResult(w, cfg.max_iter, rnorm, "iter_cap", history, dampings)
