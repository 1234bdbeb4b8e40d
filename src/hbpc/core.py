"""Split-ODE problem abstraction and first/second-derivative flux evaluation.

A state is a plain 1-D float64 numpy array. The right-hand side of
``w'(t) = Phi(w)`` is split as ``Phi = Phi_E + Phi_I`` (non-stiff /
stiff). The second derivative of the solution is ``w'' = dPhi = Phi' Phi``;
its split parts are always formed as Jacobian-vector products
``dPhi_X(w) = Phi_X'(w) (Phi_E(w) + Phi_I(w))`` so the identity
``dPhi = Phi' Phi`` holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


class NonFiniteError(RuntimeError):
    """A state or flux evaluation produced NaN/Inf (blow-up or invalid state)."""


def _as_state(w) -> Array:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"state must be a 1-D vector, got shape {w.shape}")
    return w


def fd_jacobian(f: Callable[[Array], Array], w: Array) -> Array:
    """Central-difference Jacobian of ``f`` at ``w``, column by column, with
    steps h_j = sqrt(eps) * (1 + |w_j|)."""
    w = _as_state(w)
    h = _SQRT_EPS * (1.0 + np.abs(w))
    cols = []
    for j in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[j] += h[j]
        wm[j] -= h[j]
        with np.errstate(all="ignore"):
            fp = np.asarray(f(wp), dtype=float)
            fm = np.asarray(f(wm), dtype=float)
        cols.append((fp - fm) / (2.0 * h[j]))
    jac = np.column_stack(cols)
    if not np.isfinite(jac).all():
        raise NonFiniteError("finite-difference Jacobian evaluation produced NaN/Inf")
    return jac


@dataclass
class SplitProblem:
    """An IMEX-split ODE ``w' = Phi_E(w) + Phi_I(w)`` with initial state and horizon.

    ``jac_e`` / ``jac_i`` default to central finite differences of the fluxes.
    ``dphi_i_jac``, when supplied, is the Jacobian of ``w -> Phi_I'(w) Phi(w)``
    and lets stage solvers use an exact Newton matrix instead of differencing
    the full residual. ``ref_t_end`` records a known state at ``t_end`` for
    problems without a closed-form solution (e.g. a closed orbit returning to
    its initial point).

    A callback may carry a ``stack`` attribute mapping (B, d) states to (B, d)
    or (B, d, d), row i with the bits of the per-state call on row i; only
    with all five stacked may the solver solve stage systems as one stack.
    """

    dim: int
    phi_e: Callable[[Array], Array]
    phi_i: Callable[[Array], Array]
    w0: Array
    t_end: float
    jac_e: Optional[Callable[[Array], Array]] = None
    jac_i: Optional[Callable[[Array], Array]] = None
    exact: Optional[Callable[[float], Array]] = None
    ref_t_end: Optional[Array] = None
    dphi_i_jac: Optional[Callable[[Array], Array]] = None
    name: str = "custom"

    def __post_init__(self):
        self.w0 = _as_state(self.w0)
        if self.ref_t_end is not None:
            self.ref_t_end = _as_state(self.ref_t_end)
        if self.w0.size != self.dim:
            raise ValueError(f"w0 has {self.w0.size} entries, expected dim={self.dim}")
        if self.jac_e is None:
            fe = self.phi_e
            self.jac_e = lambda w: fd_jacobian(fe, w)
        if self.jac_i is None:
            fi = self.phi_i
            self.jac_i = lambda w: fd_jacobian(fi, w)


class FluxBundle:
    """Phi_E, Phi_I and their solution-derivatives dPhi_E, dPhi_I at one state.

    The sums ``phi`` and ``dphi`` are formed once, on construction: every
    correction sweep reads them once per quadrature that uses the bundle. A
    caller that already holds ``phi_e + phi_i`` or ``dphi_e + dphi_i`` hands
    it in instead.
    """

    __slots__ = ("phi_e", "phi_i", "dphi_e", "dphi_i", "phi", "dphi")

    def __init__(self, phi_e: Array, phi_i: Array, dphi_e: Array, dphi_i: Array,
                 phi: Array | None = None, dphi: Array | None = None):
        self.phi_e, self.phi_i, self.dphi_e, self.dphi_i = phi_e, phi_i, dphi_e, dphi_i
        self.phi = phi_e + phi_i if phi is None else phi
        self.dphi = dphi_e + dphi_i if dphi is None else dphi

    def __repr__(self):
        return (f"FluxBundle(phi_e={self.phi_e!r}, phi_i={self.phi_i!r}, "
                f"dphi_e={self.dphi_e!r}, dphi_i={self.dphi_i!r})")


def all_finite(*arrays: Array) -> bool:
    """True when no entry of the 1-D arrays is NaN or Inf (one check for all)."""
    return bool(np.isfinite(np.concatenate(arrays)).all())


def eval_bundle(p: SplitProblem, w: Array) -> FluxBundle:
    """Evaluate (Phi_E, Phi_I, dPhi_E, dPhi_I) at ``w``; raise NonFiniteError on NaN/Inf."""
    w = _as_state(w)
    if w.size != p.dim or not np.isfinite(w).all():
        raise NonFiniteError(f"invalid state for bundle evaluation: {w!r}")
    with np.errstate(all="ignore"):
        fe = np.asarray(p.phi_e(w), dtype=float)
        fi = np.asarray(p.phi_i(w), dtype=float)
        ftot = fe + fi
        de = np.asarray(p.jac_e(w), dtype=float) @ ftot
        di = np.asarray(p.jac_i(w), dtype=float) @ ftot
    if not all_finite(fe, fi, de, di):
        raise NonFiniteError(f"flux evaluation produced NaN/Inf at w={w!r}")
    return FluxBundle(fe, fi, de, di, ftot)
