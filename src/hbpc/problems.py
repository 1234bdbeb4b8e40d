"""Benchmark problems with IMEX splittings and analytic Jacobians.

Each factory returns a fully wired SplitProblem: explicit/implicit fluxes,
their Jacobians, the Jacobian of the implicit solution-derivative
``w -> Phi_I'(w) Phi(w)`` (so stage solves get an exact Newton matrix), and
an exact or reference solution where one exists. Every callback carries its
stacked form as ``.stack`` (see ``SplitProblem``).
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .core import SplitProblem


def _frozen(rows):
    """A read-only float array of ``rows``: a constant Jacobian that every
    call returns, so that no caller can change what later calls see."""
    mat = np.array(rows, dtype=float)
    mat.flags.writeable = False
    return mat


def _constant_stack(mat):
    """Stacked form of a callback that always returns ``mat``: a read-only
    (B, d, d) view of it, built once per stack size B (``np.broadcast_to``
    costs more than the product the solver forms with it)."""
    views = {}

    def stack(W):
        view = views.get(len(W))
        if view is None:
            view = views[len(W)] = np.broadcast_to(mat, (len(W),) + mat.shape)
        return view

    return stack


def _second(g):
    """(B, 2) stack of the vectors (0, g)."""
    return np.stack([np.zeros(len(g)), g], axis=1)


def _second_row(x, y):
    """(B, 2, 2) stack of the matrices [[0, 0], [x, y]]."""
    out = np.zeros((len(x), 2, 2))
    out[:, 1, 0], out[:, 1, 1] = x, y
    return out


def _pow_rows(x, e):
    """``x ** e`` per entry, bitwise as float64 scalars take it (libm ``pow``;
    array ``**`` differs in 5 % of samples at e = -3.5), on Python floats
    unless Python would raise or leave the reals there."""
    vals = x.tolist()
    try:
        if float(e).is_integer() or min(vals) > 0.0:
            return np.array([v ** e for v in vals])
    except (OverflowError, ZeroDivisionError):
        pass
    return np.array([v ** e for v in x])


def scalar_pow(alpha: float = 0.2) -> SplitProblem:
    """Scalar decay w' = -w^(-5/2), w0 = 1, split artificially as
    Phi_E = alpha*Phi, Phi_I = (1-alpha)*Phi. Admissible states: w > 0.

    Closed form: w(t) = (1 - 7/2 t)^(2/7).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    beta = 1.0 - alpha

    memo = (None, None)  # (w, its power) for phi_e and phi_i, keyed by identity

    def full(w):
        nonlocal memo
        if (m := memo)[0] is not w:  # read once, so a thread sees a matching pair
            m = memo = (w, -w ** -2.5)  # a (B, 1) stack gets each row's own bits
        return m[1]

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

    phi_e.stack, phi_i.stack = phi_e, phi_i
    jac_e.stack = lambda W: (2.5 * alpha * _pow_rows(W[:, 0], -3.5))[:, None, None]
    jac_i.stack = lambda W: (2.5 * beta * _pow_rows(W[:, 0], -3.5))[:, None, None]
    dphi_i_jac.stack = lambda W: (15.0 * beta * _pow_rows(W[:, 0], -7.0))[:, None, None]

    def exact(t):
        return np.array([(1.0 - 3.5 * t) ** (2.0 / 7.0)])

    return SplitProblem(dim=1, phi_e=phi_e, phi_i=phi_i, w0=np.array([1.0]),
                        t_end=0.25, jac_e=jac_e, jac_i=jac_i, exact=exact,
                        dphi_i_jac=dphi_i_jac, name="scalar_pow")


def _on_floats(fn, w):
    """``fn(w1, w2, math)`` on the two entries of ``w`` as Python floats,
    read once. Where ``math`` raises (sin or cos of +-inf) ``fn`` runs again
    on numpy float64 scalars with ``numpy``, whose NaN the solver's
    finiteness checks turn into NonFiniteError."""
    w1, w2 = w.tolist()
    try:
        return fn(w1, w2, math)
    except ValueError:
        return fn(w[0], w[1], np)


def pareschi_russo(eps: float = 1.0) -> SplitProblem:
    """Oscillator w1' = -w2, w2' = w1 + (sin(w1) - w2)/eps, w0 = (pi/2, 1),
    horizon 5; the relaxation term is implicit, the rotation explicit.

    The callbacks that take sin or cos compute on Python floats
    (``_on_floats``), as ``arenstorf``'s do: the expressions numpy float64
    scalars would evaluate, in the same order, and ``math.sin``/``math.cos``
    give ``np.sin``/``np.cos``'s bits here, so each result is bitwise the
    stacked form's row (``tests/test_problems.py`` checks both on draws).
    ``jac_e`` returns one shared read-only matrix.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def g(w1, w2, m):  # second entry of Phi_I
        return (m.sin(w1) - w2) / eps

    def dg_dw1(w1, w2, m):
        return m.cos(w1) / eps

    def dh(w1, w2, m):
        # second entry of Phi_I' Phi is h = (-w2 cos w1 - w1 - (sin w1 - w2)/eps)/eps
        s, c = m.sin(w1), m.cos(w1)
        return (w2 * s - 1.0 - c / eps) / eps, (-c + 1.0 / eps) / eps

    def phi_e(w):  # no arithmetic: as fast on numpy scalars
        return np.array([-w[1], w[0]])

    def phi_i(w):
        return np.array([0.0, _on_floats(g, w)])

    jac_e_mat = _frozen([[0.0, -1.0], [1.0, 0.0]])

    def jac_e(w):
        return jac_e_mat

    def jac_i(w):
        return np.array([0.0, 0.0, _on_floats(dg_dw1, w), -1.0 / eps]).reshape(2, 2)

    def dphi_i_jac(w):
        dh_dw1, dh_dw2 = _on_floats(dh, w)
        return np.array([0.0, 0.0, dh_dw1, dh_dw2]).reshape(2, 2)

    phi_e.stack = lambda W: np.stack([-W[:, 1], W[:, 0]], axis=1)
    phi_i.stack = lambda W: _second(g(W[:, 0], W[:, 1], np))
    jac_e.stack = _constant_stack(jac_e_mat)
    jac_i.stack = lambda W: _second_row(dg_dw1(W[:, 0], W[:, 1], np), -1.0 / eps)
    dphi_i_jac.stack = lambda W: _second_row(*dh(W[:, 0], W[:, 1], np))
    return SplitProblem(dim=2, phi_e=phi_e, phi_i=phi_i,
                        w0=np.array([np.pi / 2.0, 1.0]), t_end=5.0,
                        jac_e=jac_e, jac_i=jac_i, dphi_i_jac=dphi_i_jac,
                        name="pareschi_russo")


def van_der_pol(eps: float = 0.1) -> SplitProblem:
    """Van der Pol oscillator w1' = w2, w2' = ((1 - w1^2) w2 - w1)/eps with
    w0 = (2, -2/3 + 10/81 eps), horizon 0.5; stiff component implicit."""
    if eps <= 0:
        raise ValueError("eps must be positive")

    # per state on numpy float64 scalars with builtin ``pow`` (the bits of
    # ``**``), stacked on columns with ``_pow_rows``
    def g(w1, w2, pw):  # second entry of Phi_I
        return ((1.0 - pw(w1, 2)) * w2 - w1) / eps

    def dg(w1, w2, pw):  # second row of Phi_I'
        return (-2.0 * w1 * w2 - 1.0) / eps, (1.0 - pw(w1, 2)) / eps

    def dh(w1, w2, pw):
        # dh/dw for h = a w2 + b g, the second entry of Phi_I' Phi, with (a, b) = dg
        a, b = dg(w1, w2, pw)
        return ((-2.0 * pw(w2, 2) - 2.0 * w1 * g(w1, w2, pw)) / eps + a * b,
                -2.0 * w1 * w2 / eps + a + pw(b, 2))

    def phi_e(w):
        return np.array([w[1], 0.0])

    def phi_i(w):
        return np.array([0.0, g(w[0], w[1], pow)])

    jac_e_mat = _frozen([[0.0, 1.0], [0.0, 0.0]])

    def jac_e(w):
        return jac_e_mat

    def jac_i(w):
        return np.array([[0.0, 0.0], dg(w[0], w[1], pow)])

    def dphi_i_jac(w):
        return np.array([[0.0, 0.0], dh(w[0], w[1], pow)])

    phi_e.stack = lambda W: np.stack([W[:, 1], np.zeros(len(W))], axis=1)
    phi_i.stack = lambda W: _second(g(W[:, 0], W[:, 1], _pow_rows))
    jac_e.stack = _constant_stack(jac_e_mat)
    jac_i.stack = lambda W: _second_row(*dg(W[:, 0], W[:, 1], _pow_rows))
    dphi_i_jac.stack = lambda W: _second_row(*dh(W[:, 0], W[:, 1], _pow_rows))

    return SplitProblem(dim=2, phi_e=phi_e, phi_i=phi_i,
                        w0=np.array([2.0, -2.0 / 3.0 + 10.0 / 81.0 * eps]),
                        t_end=0.5, jac_e=jac_e, jac_i=jac_i,
                        dphi_i_jac=dphi_i_jac, name="van_der_pol")


_MU = 0.012277471
_MU_P = 1.0 - _MU
_ARENSTORF_W0 = np.array([0.994, 0.0, 0.0, -2.001585106379])
_ARENSTORF_PERIOD = 17.065216560159


def _gravity(u: float, y: float):
    """Entries (P, Q, R) of G = [[P, Q], [Q, R]] = d/d(x,y) of (u, y)/r^3 for
    r^2 = u^2 + y^2."""
    r2 = u * u + y * y
    r3 = r2 ** -1.5
    r5 = r2 ** -2.5
    return r3 - 3.0 * u * u * r5, -3.0 * u * y * r5, r3 - 3.0 * y * y * r5


def _gravity_derivs(u: float, y: float):
    """(dP/dx, dP/dy, dQ/dy, dR/dy) of the entries of ``_gravity``; dG/dx is
    [[dP/dx, dP/dy], [dP/dy, dQ/dy]] and dG/dy is [[dP/dy, dQ/dy], [dQ/dy, dR/dy]]."""
    r2 = u * u + y * y
    r5 = r2 ** -2.5
    r7 = r2 ** -3.5
    dP_dx = -9.0 * u * r5 + 15.0 * u ** 3 * r7
    dP_dy = -3.0 * y * r5 + 15.0 * u * u * y * r7
    dQ_dy = -3.0 * u * r5 + 15.0 * u * y * y * r7
    dR_dy = -9.0 * y * r5 + 15.0 * y ** 3 * r7
    return dP_dx, dP_dy, dQ_dy, dR_dy


def _accel(x, y):
    """Gravitational acceleration (ax, ay) at the position (x, y)."""
    d1 = ((x + _MU) ** 2 + y ** 2) ** 1.5
    d2 = ((x - _MU_P) ** 2 + y ** 2) ** 1.5
    ax = -_MU_P * (x + _MU) / d1 - _MU * (x - _MU_P) / d2
    ay = -_MU_P * y / d1 - _MU * y / d2
    return ax, ay


def _accel_jac(x, y):
    """Entries (a, b, c) of A = d(ax, ay)/d(x, y) = [[a, b], [b, c]] =
    -mu' G1 - mu G2, with G1, G2 the gravity matrices of the two bodies."""
    P1, Q1, R1 = _gravity(x + _MU, y)
    P2, Q2, R2 = _gravity(x - _MU_P, y)
    return (-_MU_P * P1 - _MU * P2, -_MU_P * Q1 - _MU * Q2,
            -_MU_P * R1 - _MU * R2)


def _accel_jac_derivs(x, y):
    """The four distinct entries of dA/dx and dA/dy, as ``_gravity_derivs``."""
    g1 = _gravity_derivs(x + _MU, y)
    g2 = _gravity_derivs(x - _MU_P, y)
    return (-_MU_P * g1[0] - _MU * g2[0], -_MU_P * g1[1] - _MU * g2[1],
            -_MU_P * g1[2] - _MU * g2[2], -_MU_P * g1[3] - _MU * g2[3])


def _at_position(fn, w):
    """``fn(x, y)`` at the position of ``w``, computed on Python floats.

    Python float ``**`` and ``/`` raise where IEEE arithmetic overflows or
    divides by zero (a Newton iterate far off the orbit, a state on a body);
    there ``fn`` runs again on numpy float64 scalars, which give the IEEE
    inf/NaN that the solver's finiteness checks turn into NonFiniteError.
    """
    x, y = w.tolist()[:2]
    try:
        return fn(x, y)
    except (OverflowError, ZeroDivisionError):
        return fn(w[0], w[1])


def _at_positions(fn, W):
    """(B, m) array of ``_at_position(fn, w)`` over the rows w of ``W``."""
    return np.array([_at_position(fn, w) for w in W])


def arenstorf() -> SplitProblem:
    """Restricted three-body problem in rotating coordinates: a closed orbit
    of period 17.065216560159 from w0 = (0.994, 0, 0, -2.001585106379).

    State is (x, y, x', y'); the 1/D gravitational terms are implicit, the
    rotation/velocity terms explicit. The state at t_end is w0 again.

    The callbacks compute on Python floats read once from the state, since
    numpy's per-call overhead on scalar entries costs more than their
    arithmetic, and build each result with one ``np.array`` call. The
    expressions are the ones numpy float64 scalars would evaluate, in the same
    order, so the results are bitwise those: both call libm ``pow`` for
    ``**``. What must stay numpy is kept numpy: dA/dx @ (x', y') and
    dA/dy @ (x', y'), formed as one (4, 2) product whose rows keep the bits
    of the two 2 x 2 products (the summation is BLAS's, with fused
    multiply-adds, which Python float sums do not reproduce), and the
    fallback to float64 scalars where Python raises instead of returning
    inf/NaN (``_at_position``). The stacked forms keep that float math per row.
    ``jac_e`` returns one shared read-only matrix.
    """

    def phi_e(w):
        x, y, u, v = w.tolist()
        return np.array([u, v, x + 2.0 * v, y - 2.0 * u])

    def phi_i(w):
        ax, ay = _at_position(_accel, w)
        return np.array([0.0, 0.0, ax, ay])

    jac_e_mat = _frozen([[0.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0, 2.0],
                         [0.0, 1.0, -2.0, 0.0]])

    def jac_e(w):
        return jac_e_mat

    # (w, A) of the last jac_i call: a Newton matrix asks for jac_i and then
    # dphi_i_jac at the same state object. Replaced as one tuple, so a thread
    # reading it sees a matching pair; keyed by identity, since the solver
    # never updates a state in place.
    accel_memo = (None, None)

    def jac_i(w):
        nonlocal accel_memo
        A = _at_position(_accel_jac, w)
        accel_memo = (w, A)
        a, b, c = A
        return np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                         a, b, 0.0, 0.0, b, c, 0.0, 0.0]).reshape(4, 4)

    def dphi_i_jac(w):
        # rows 3,4 of Phi_I' Phi equal A @ (w3, w4); differentiate in all four
        # coordinates (A depends on x, y only)
        w_memo, A = accel_memo
        if w_memo is not w:
            A = _at_position(_accel_jac, w)
        a, b, c = A
        e1, e2, e3, e4 = _at_position(_accel_jac_derivs, w)
        # rows 0, 1: dA/dx @ (x', y'); rows 2, 3: dA/dy @ (x', y')
        gx0, gx1, gy0, gy1 = (np.array([e1, e2, e2, e3, e2, e3, e3, e4]).reshape(4, 2)
                              @ w[2:]).tolist()
        return np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                         gx0, gy0, a, b, gx1, gy1, b, c]).reshape(4, 4)

    def jac_i_stack(W):
        out = np.zeros((len(W), 4, 4))
        out[:, 2:, :2] = _at_positions(_accel_jac, W)[:, [[0, 1], [1, 2]]]
        return out

    def dphi_i_jac_stack(W):
        out = jac_i_stack(W)[:, :, [2, 3, 0, 1]]  # A moved to columns 2, 3
        e = _at_positions(_accel_jac_derivs, W)
        # matmul's bits depend on its operands' memory layout: contiguous
        # ones give the per-state products'
        v = np.ascontiguousarray(W[:, 2:, None])
        out[:, 2:, 0] = (np.ascontiguousarray(e[:, [[0, 1], [1, 2]]]) @ v)[:, :, 0]
        out[:, 2:, 1] = (np.ascontiguousarray(e[:, [[1, 2], [2, 3]]]) @ v)[:, :, 0]
        return out

    phi_e.stack = lambda W: np.stack([W[:, 2], W[:, 3], W[:, 0] + 2.0 * W[:, 3],
                                      W[:, 1] - 2.0 * W[:, 2]], axis=1)
    phi_i.stack = lambda W: np.concatenate([np.zeros_like(W[:, 2:]),
                                            _at_positions(_accel, W)], axis=1)
    jac_e.stack = _constant_stack(jac_e_mat)
    jac_i.stack, dphi_i_jac.stack = jac_i_stack, dphi_i_jac_stack

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
    if name not in BUILTIN:
        raise KeyError(f"unknown problem {name!r} (choose from {sorted(BUILTIN)})")
    given = {"eps": eps, "alpha": alpha}
    params = inspect.signature(BUILTIN[name]).parameters
    return BUILTIN[name](**{key: given[key] for key in params if given.get(key) is not None})
