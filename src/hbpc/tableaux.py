"""Two-derivative Hermite-Birkhoff collocation tableaux and the stage quadrature.

A tableau of order q = 2s has s equispaced abscissae c in [0, 1], a weight
matrix b1 for the flux values and a weight matrix b2 for the flux
derivatives. Stage l of the underlying Runge-Kutta method reads

    w_l = w_n + dt * sum_j b1[l, j] Phi(w_j) + dt^2 * sum_j b2[l, j] dPhi(w_j),

the last row defines the update (first-same-as-last). Coefficients are kept
as numerator/denominator expressions so they can be reviewed digit by digit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Array


class UnsupportedOrderError(ValueError):
    """Requested order has no built-in tableau."""


@dataclass(frozen=True)
class TwoDerivativeTableau:
    q: int
    s: int
    c: Array
    b1: Array
    b2: Array

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "b1", np.asarray(self.b1, dtype=float))
        object.__setattr__(self, "b2", np.asarray(self.b2, dtype=float))


def builtin(q: int) -> TwoDerivativeTableau:
    """The built-in tableaux of order 4, 6 and 8 (s = q/2 stages)."""
    if q == 4:
        c = [0.0, 1.0]
        b1 = [[0.0, 0.0],
              [1 / 2, 1 / 2]]
        b2 = [[0.0, 0.0],
              [1 / 12, -1 / 12]]
    elif q == 6:
        c = [0.0, 1 / 2, 1.0]
        b1 = [[0.0, 0.0, 0.0],
              [101 / 480, 8 / 30, 55 / 2400],
              [7 / 30, 16 / 30, 7 / 30]]
        b2 = [[0.0, 0.0, 0.0],
              [65 / 4800, -25 / 600, -25 / 8000],
              [5 / 300, 0.0, -5 / 300]]
    elif q == 8:
        c = [0.0, 1 / 3, 2 / 3, 1.0]
        b1 = [[0.0, 0.0, 0.0, 0.0],
              [6893 / 54432, 313 / 2016, 89 / 2016, 397 / 54432],
              [223 / 1701, 20 / 63, 13 / 63, 20 / 1701],
              [31 / 224, 81 / 224, 81 / 224, 31 / 224]]
        b2 = [[0.0, 0.0, 0.0, 0.0],
              [1283 / 272160, -851 / 30240, -269 / 30240, -163 / 272160],
              [43 / 8505, -16 / 945, -19 / 945, -8 / 8505],
              [19 / 3360, -9 / 1120, 9 / 1120, -19 / 3360]]
    else:
        raise UnsupportedOrderError(f"no built-in tableau of order {q} (use 4, 6 or 8)")
    return TwoDerivativeTableau(q=q, s=q // 2, c=c, b1=b1, b2=b2)


def quadrature(tab: TwoDerivativeTableau, l, dt: float, phis, dphis) -> Array:
    """Stage-l quadrature  dt * sum_j b1[l,j] phis[j] + dt^2 * sum_j b2[l,j] dphis[j].

    ``phis``/``dphis`` are (s, d) arrays, or sequences of s state-shaped
    vectors, of flux values and flux derivatives at the stage states; (B, s, d)
    stacks of B such blocks give the (B, d) quadratures, row b bitwise that of
    block b alone; a list ``l`` of m stages gives (m, d) or (B, m, d), each row
    bitwise that stage's alone. Exact for polynomial integrands up to degree
    q - 1 over [0, c_l * dt].
    """
    if not (all(0 <= i < tab.s for i in l) if isinstance(l, list) else 0 <= l < tab.s):
        raise ValueError(f"stage index {l} outside 0..{tab.s - 1}")
    phis = np.asarray(phis, dtype=float)
    dphis = np.asarray(dphis, dtype=float)
    if isinstance(l, list):  # (m, 1, s) @ (..., 1, s, d): (m, s) @ gives other bits
        return (dt * (tab.b1[l, None] @ phis[..., None, :, :])
                + dt * dt * (tab.b2[l, None] @ dphis[..., None, :, :]))[..., 0, :]
    return dt * (tab.b1[l] @ phis) + dt * dt * (tab.b2[l] @ dphis)


@dataclass(frozen=True)
class TableauCheck:
    name: str
    passed: bool
    violation: float


@dataclass(frozen=True)
class TableauReport:
    checks: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    @property
    def max_violation(self) -> float:
        return max(ch.violation for ch in self.checks)


def validate(tab: TwoDerivativeTableau, tol: float = 1e-14) -> TableauReport:
    """Check the structural identities of a tableau; report, never raise.

    Checked: endpoint/equispacing of c, fully explicit first stage, row sums
    of b1 equal c_l (exactness on constants), and b1 c + row sums of b2 equal
    c_l^2 / 2 (exactness on t).
    """
    s = tab.s
    checks = []

    v = abs(tab.c[0])
    checks.append(TableauCheck("c starts at 0", v <= tol, v))
    v = abs(tab.c[-1] - 1.0)
    checks.append(TableauCheck("c ends at 1", v <= tol, v))
    if s > 1:
        spacing = np.diff(tab.c) - 1.0 / (s - 1)
        v = float(np.max(np.abs(spacing)))
    else:
        v = 0.0
    checks.append(TableauCheck("c equispaced", v <= tol, v))

    v = float(max(np.max(np.abs(tab.b1[0])), np.max(np.abs(tab.b2[0]))))
    checks.append(TableauCheck("first stage explicit (row 0 zero)", v <= tol, v))

    v = float(np.max(np.abs(tab.b1.sum(axis=1) - tab.c)))
    checks.append(TableauCheck("b1 row sums equal c", v <= tol, v))

    v = float(np.max(np.abs(tab.b1 @ tab.c + tab.b2.sum(axis=1) - tab.c**2 / 2.0)))
    checks.append(TableauCheck("b1 c + b2 row sums equal c^2/2", v <= tol, v))

    return TableauReport(checks=tuple(checks), tol=tol)
