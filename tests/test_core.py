"""State coercion, finite-difference Jacobians, and flux bundles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbpc.core import (NonFiniteError, SplitProblem, _as_state, eval_bundle,
                       fd_jacobian)


def _linear_problem(a_e, a_i, w0, t_end=1.0, **kw):
    a_e = np.asarray(a_e, dtype=float)
    a_i = np.asarray(a_i, dtype=float)
    return SplitProblem(dim=len(w0),
                        phi_e=lambda w: a_e @ w, phi_i=lambda w: a_i @ w,
                        w0=np.asarray(w0, dtype=float), t_end=t_end, **kw)


def test_as_state_coerces_and_validates():
    w = _as_state([1, 2, 3])
    assert w.dtype == np.float64 and w.shape == (3,)
    with pytest.raises(ValueError):
        _as_state([[1.0, 2.0]])
    with pytest.raises(ValueError):
        _as_state(3.5)


def test_fd_jacobian_on_quadratic_map():
    """d/dw (w1^2, w1 w2) = [[2 w1, 0], [w2, w1]]."""
    f = lambda w: np.array([w[0] ** 2, w[0] * w[1]])
    w = np.array([1.5, -2.0])
    want = np.array([[3.0, 0.0], [-2.0, 1.5]])
    assert fd_jacobian(f, w) == pytest.approx(want, rel=1e-7, abs=1e-7)


@settings(max_examples=30)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.lists(st.floats(-3, 3), min_size=2, max_size=2))
def test_fd_jacobian_recovers_linear_map(entries, w):
    a = np.array(entries).reshape(2, 2)
    got = fd_jacobian(lambda v: a @ v, np.array(w))
    assert got == pytest.approx(a, rel=1e-6, abs=1e-6)


def test_fd_jacobian_rejects_nonfinite():
    # sqrt's negative-side perturbation produces NaN columns
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError):
            fd_jacobian(lambda w: np.sqrt(w), np.array([0.0]))


def test_split_problem_installs_fd_fallback_jacobians():
    a_e = [[0.0, 1.0], [-1.0, 0.0]]
    a_i = [[-2.0, 0.0], [0.5, -1.0]]
    p = _linear_problem(a_e, a_i, [1.0, 2.0])
    w = np.array([0.3, -0.4])
    assert p.jac_e(w) == pytest.approx(np.array(a_e), rel=1e-6, abs=1e-8)
    assert p.jac_i(w) == pytest.approx(np.array(a_i), rel=1e-6, abs=1e-8)


def test_split_problem_validates_w0_and_ref():
    with pytest.raises(ValueError):
        SplitProblem(dim=2, phi_e=lambda w: w, phi_i=lambda w: -w,
                     w0=np.array([1.0, 2.0, 3.0]), t_end=1.0)
    p = _linear_problem([[0.0]], [[-1.0]], [1.0],
                        ref_t_end=np.array([0.5]))
    assert p.ref_t_end == pytest.approx([0.5])
    with pytest.raises(ValueError):
        _linear_problem([[0.0]], [[-1.0]], [1.0],
                        ref_t_end=np.array([[0.5]]))


def test_eval_bundle_rejects_nonfinite_state():
    p = _linear_problem([[0.0]], [[-1.0]], [1.0])
    with pytest.raises(NonFiniteError):
        eval_bundle(p, np.array([np.nan]))
    with pytest.raises(NonFiniteError):
        eval_bundle(p, np.array([1.0, 2.0]))


def test_eval_bundle_composes_derivatives():
    """dphi_X must be J_X(w) applied to the total flux phi_e + phi_i."""
    a_e = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a_i = np.array([[-2.0, 0.0], [0.5, -1.0]])
    p = _linear_problem(a_e, a_i, [1.0, 2.0],
                        jac_e=lambda w: a_e, jac_i=lambda w: a_i)
    w = np.array([0.7, -1.1])
    b = eval_bundle(p, w)
    total = (a_e + a_i) @ w
    assert b.phi == pytest.approx(total, rel=1e-14)
    assert b.dphi_e == pytest.approx(a_e @ total, rel=1e-14)
    assert b.dphi_i == pytest.approx(a_i @ total, rel=1e-14)
    assert b.dphi == pytest.approx((a_e + a_i) @ total, rel=1e-14)
    assert b.phi is b.phi and b.dphi is b.dphi  # each sum formed once


def test_eval_bundle_flags_nonfinite_flux():
    p = SplitProblem(dim=1, phi_e=lambda w: np.zeros(1),
                     phi_i=lambda w: -w ** -2.5,
                     w0=np.array([1.0]), t_end=0.1)
    with pytest.raises(NonFiniteError):
        eval_bundle(p, np.array([0.0]))
