"""Benchmark problems with IMEX splittings and analytic Jacobians.

Each factory returns a fully wired SplitProblem: explicit/implicit fluxes,
their Jacobians, the Jacobian of the implicit solution-derivative
``w -> Phi_I'(w) Phi(w)`` (so stage solves get an exact Newton matrix), and
an exact or reference solution where one exists.
"""

from __future__ import annotations

import numpy as np

from .core import SplitProblem


def scalar_pow(alpha: float = 0.2) -> SplitProblem:
    """Scalar decay w' = -w^(-5/2), w0 = 1, split artificially as
    Phi_E = alpha*Phi, Phi_I = (1-alpha)*Phi. Admissible states: w > 0.

    Closed form: w(t) = (1 - 7/2 t)^(2/7).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    beta = 1.0 - alpha

    def full(w):
        return -w ** -2.5

    def phi_e(w):
        return alpha * full(w)

    def phi_i(w):
        return beta * full(w)

    def jac_e(w):
        return np.array([[2.5 * alpha * w[0] ** -3.5]])

    def jac_i(w):
        return np.array([[2.5 * beta * w[0] ** -3.5]])

    def dphi_i_jac(w):
        # Phi_I'(w) Phi(w) = 2.5 beta w^{-7/2} * (-w^{-5/2}) = -2.5 beta w^{-6}
        return np.array([[15.0 * beta * w[0] ** -7.0]])

    def exact(t):
        return np.array([(1.0 - 3.5 * t) ** (2.0 / 7.0)])

    return SplitProblem(dim=1, phi_e=phi_e, phi_i=phi_i, w0=np.array([1.0]),
                        t_end=0.25, jac_e=jac_e, jac_i=jac_i, exact=exact,
                        dphi_i_jac=dphi_i_jac, name="scalar_pow")


def pareschi_russo(eps: float = 1.0) -> SplitProblem:
    """Oscillator w1' = -w2, w2' = w1 + (sin(w1) - w2)/eps, w0 = (pi/2, 1),
    horizon 5; the relaxation term is implicit, the rotation explicit."""
    if eps <= 0:
        raise ValueError("eps must be positive")

    def phi_e(w):
        return np.array([-w[1], w[0]])

    def phi_i(w):
        return np.array([0.0, (np.sin(w[0]) - w[1]) / eps])

    def jac_e(w):
        return np.array([[0.0, -1.0], [1.0, 0.0]])

    def jac_i(w):
        return np.array([[0.0, 0.0], [np.cos(w[0]) / eps, -1.0 / eps]])

    def dphi_i_jac(w):
        # second row of Phi_I' Phi is g = (-w2 cos w1 - w1 - (sin w1 - w2)/eps)/eps
        w1, w2 = w
        dg_dw1 = (w2 * np.sin(w1) - 1.0 - np.cos(w1) / eps) / eps
        dg_dw2 = (-np.cos(w1) + 1.0 / eps) / eps
        return np.array([[0.0, 0.0], [dg_dw1, dg_dw2]])

    return SplitProblem(dim=2, phi_e=phi_e, phi_i=phi_i,
                        w0=np.array([np.pi / 2.0, 1.0]), t_end=5.0,
                        jac_e=jac_e, jac_i=jac_i, dphi_i_jac=dphi_i_jac,
                        name="pareschi_russo")


def van_der_pol(eps: float = 0.1) -> SplitProblem:
    """Van der Pol oscillator w1' = w2, w2' = ((1 - w1^2) w2 - w1)/eps with
    w0 = (2, -2/3 + 10/81 eps), horizon 0.5; stiff component implicit."""
    if eps <= 0:
        raise ValueError("eps must be positive")

    def phi_e(w):
        return np.array([w[1], 0.0])

    def phi_i(w):
        return np.array([0.0, ((1.0 - w[0] ** 2) * w[1] - w[0]) / eps])

    def jac_e(w):
        return np.array([[0.0, 1.0], [0.0, 0.0]])

    def jac_i(w):
        return np.array([[0.0, 0.0],
                         [(-2.0 * w[0] * w[1] - 1.0) / eps,
                          (1.0 - w[0] ** 2) / eps]])

    def dphi_i_jac(w):
        # second row of Phi_I' Phi is h = a w2 + b g with a = (-2 w1 w2 - 1)/eps,
        # b = (1 - w1^2)/eps, g = ((1 - w1^2) w2 - w1)/eps
        w1, w2 = w
        a = (-2.0 * w1 * w2 - 1.0) / eps
        b = (1.0 - w1 ** 2) / eps
        g = ((1.0 - w1 ** 2) * w2 - w1) / eps
        dh_dw1 = (-2.0 * w2 ** 2 - 2.0 * w1 * g) / eps + a * b
        dh_dw2 = -2.0 * w1 * w2 / eps + a + b ** 2
        return np.array([[0.0, 0.0], [dh_dw1, dh_dw2]])

    return SplitProblem(dim=2, phi_e=phi_e, phi_i=phi_i,
                        w0=np.array([2.0, -2.0 / 3.0 + 10.0 / 81.0 * eps]),
                        t_end=0.5, jac_e=jac_e, jac_i=jac_i,
                        dphi_i_jac=dphi_i_jac, name="van_der_pol")


_MU = 0.012277471
_MU_P = 1.0 - _MU
_ARENSTORF_W0 = np.array([0.994, 0.0, 0.0, -2.001585106379])
_ARENSTORF_PERIOD = 17.065216560159


def _gravity(u: float, y: float):
    """G = d/d(x,y) of (u, y)/r^3 for r^2 = u^2 + y^2."""
    r2 = u * u + y * y
    r3 = r2 ** -1.5
    r5 = r2 ** -2.5
    return np.array([[r3 - 3.0 * u * u * r5, -3.0 * u * y * r5],
                     [-3.0 * u * y * r5, r3 - 3.0 * y * y * r5]])


def _gravity_derivs(u: float, y: float):
    """dG/dx and dG/dy of the matrix G of ``_gravity``."""
    r2 = u * u + y * y
    r5 = r2 ** -2.5
    r7 = r2 ** -3.5
    dP_dx = -9.0 * u * r5 + 15.0 * u ** 3 * r7
    dP_dy = -3.0 * y * r5 + 15.0 * u * u * y * r7
    dQ_dy = -3.0 * u * r5 + 15.0 * u * y * y * r7
    dR_dy = -9.0 * y * r5 + 15.0 * y ** 3 * r7
    dG_dx = np.array([[dP_dx, dP_dy], [dP_dy, dQ_dy]])
    dG_dy = np.array([[dP_dy, dQ_dy], [dQ_dy, dR_dy]])
    return dG_dx, dG_dy


def arenstorf() -> SplitProblem:
    """Restricted three-body problem in rotating coordinates: a closed orbit
    of period 17.065216560159 from w0 = (0.994, 0, 0, -2.001585106379).

    State is (x, y, x', y'); the 1/D gravitational terms are implicit, the
    rotation/velocity terms explicit. The state at t_end is w0 again.
    """

    def _dists(w):
        d1 = ((w[0] + _MU) ** 2 + w[1] ** 2) ** 1.5
        d2 = ((w[0] - _MU_P) ** 2 + w[1] ** 2) ** 1.5
        return d1, d2

    def phi_e(w):
        return np.array([w[2], w[3], w[0] + 2.0 * w[3], w[1] - 2.0 * w[2]])

    def phi_i(w):
        d1, d2 = _dists(w)
        ax = -_MU_P * (w[0] + _MU) / d1 - _MU * (w[0] - _MU_P) / d2
        ay = -_MU_P * w[1] / d1 - _MU * w[1] / d2
        return np.array([0.0, 0.0, ax, ay])

    jac_e_mat = np.array([[0.0, 0.0, 1.0, 0.0],
                          [0.0, 0.0, 0.0, 1.0],
                          [1.0, 0.0, 0.0, 2.0],
                          [0.0, 1.0, -2.0, 0.0]])

    def jac_e(w):
        return jac_e_mat

    def _accel_jac(w):
        # A = d(ax, ay)/d(x, y); jac_i needs only this, not its derivatives
        return -_MU_P * _gravity(w[0] + _MU, w[1]) - _MU * _gravity(w[0] - _MU_P, w[1])

    # (w, A) of the last jac_i call: a Newton matrix asks for jac_i and then
    # dphi_i_jac at the same state object. Replaced as one tuple, so a thread
    # reading it sees a matching pair; keyed by identity, since the solver
    # never updates a state in place.
    accel_memo = (None, None)

    def jac_i(w):
        nonlocal accel_memo
        A = _accel_jac(w)
        accel_memo = (w, A)
        J = np.zeros((4, 4))
        J[2:, :2] = A
        return J

    def dphi_i_jac(w):
        # rows 3,4 of Phi_I' Phi equal A @ (w3, w4); differentiate in all four
        # coordinates (A depends on x, y only)
        w_memo, A = accel_memo
        if w_memo is not w:
            A = _accel_jac(w)
        dG1_dx, dG1_dy = _gravity_derivs(w[0] + _MU, w[1])
        dG2_dx, dG2_dy = _gravity_derivs(w[0] - _MU_P, w[1])
        dA_dx = -_MU_P * dG1_dx - _MU * dG2_dx
        dA_dy = -_MU_P * dG1_dy - _MU * dG2_dy
        v = w[2:]
        M = np.zeros((4, 4))
        M[2:, 0] = dA_dx @ v
        M[2:, 1] = dA_dy @ v
        M[2:, 2] = A[:, 0]
        M[2:, 3] = A[:, 1]
        return M

    return SplitProblem(dim=4, phi_e=phi_e, phi_i=phi_i,
                        w0=_ARENSTORF_W0.copy(), t_end=_ARENSTORF_PERIOD,
                        jac_e=jac_e, jac_i=jac_i, ref_t_end=_ARENSTORF_W0.copy(),
                        dphi_i_jac=dphi_i_jac, name="arenstorf")


BUILTIN = {
    "scalar_pow": scalar_pow,
    "pareschi_russo": pareschi_russo,
    "van_der_pol": van_der_pol,
    "arenstorf": arenstorf,
}


def make(name: str, eps: float | None = None, alpha: float | None = None) -> SplitProblem:
    """Instantiate a named problem, passing eps/alpha where they apply."""
    if name == "scalar_pow":
        return scalar_pow(**({} if alpha is None else {"alpha": alpha}))
    if name == "pareschi_russo":
        return pareschi_russo(**({} if eps is None else {"eps": eps}))
    if name == "van_der_pol":
        return van_der_pol(**({} if eps is None else {"eps": eps}))
    if name == "arenstorf":
        return arenstorf()
    raise KeyError(f"unknown problem {name!r} (choose from {sorted(BUILTIN)})")
