"""Tableau coefficients, structural identities, and quadrature exactness."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _exact_tableaux import EXACT, node_floats, to_floats
from hbpc.tableaux import (TwoDerivativeTableau, UnsupportedOrderError,
                           builtin, quadrature, validate)


@pytest.mark.parametrize("q", [4, 6, 8])
def test_builtin_coefficients_exact(q):
    """Coefficients equal the published rationals to the last bit."""
    c_frac, b1_frac, b2_frac = EXACT[q]
    tab = builtin(q)
    assert tab.q == q and tab.s == q // 2
    assert np.array_equal(tab.c, node_floats(c_frac))
    assert np.array_equal(tab.b1, to_floats(b1_frac))
    assert np.array_equal(tab.b2, to_floats(b2_frac))


@pytest.mark.parametrize("q", [4, 6, 8])
def test_validate_structural_identities(q):
    report = validate(builtin(q))
    assert report.passed
    assert report.max_violation <= 1e-14


@pytest.mark.parametrize("q", [3, 5, 7, 10, 0, -4])
def test_unsupported_order_rejected(q):
    with pytest.raises(UnsupportedOrderError):
        builtin(q)


def test_validate_flags_broken_tableau():
    tab = builtin(4)
    bad = TwoDerivativeTableau(q=4, s=2, c=tab.c,
                               b1=tab.b1 + 1e-3, b2=tab.b2)
    report = validate(bad)
    assert not report.passed
    assert report.max_violation > 1e-4


@pytest.mark.parametrize("q", [4, 6, 8])
def test_quadrature_exact_on_monomials(q):
    """Stage l integrates t^m over [0, c_l dt] exactly for m < q.

    With phi_j = (c_j dt)^m and dphi_j = m (c_j dt)^(m-1), the combination
    must reproduce (c_l dt)^(m+1) / (m+1) to near machine precision.
    """
    tab = builtin(q)
    dt = 0.37
    for m in range(q):
        nodes = tab.c * dt
        phis = nodes ** m
        dphis = m * nodes ** (m - 1) if m >= 1 else np.zeros_like(nodes)
        for l in range(tab.s):
            got = quadrature(tab, l, dt, phis, dphis)
            want = (tab.c[l] * dt) ** (m + 1) / (m + 1)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("q", [4, 6, 8])
def test_quadrature_stage_zero_is_empty(q):
    tab = builtin(q)
    z = np.ones(tab.s)
    assert quadrature(tab, 0, 0.5, z, z) == 0.0


def test_quadrature_rejects_bad_stage():
    tab = builtin(4)
    with pytest.raises(ValueError):
        quadrature(tab, 2, 0.1, np.ones(2), np.ones(2))


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("q", [4, 6, 8])
def test_quadrature_on_stacks_is_per_block_bitwise(q, d):
    """A (B, s, d) stack gives row for row the (s, d) quadrature of each block,
    and a list of stage rows each row's, for a stack or one block."""
    tab = builtin(q)
    rng = np.random.default_rng(q * 10 + d)
    B = 5
    phis = rng.standard_normal((B, tab.s, d)) * 10.0 ** rng.integers(-6, 6, (B, tab.s, d))
    dphis = rng.standard_normal((B, tab.s, d)) * 10.0 ** rng.integers(-6, 6, (B, tab.s, d))
    rows = list(range(1, tab.s))
    every = quadrature(tab, rows, 0.37, phis, dphis)  # all rows of all blocks
    assert every.shape == (B, tab.s - 1, d)
    for l in range(tab.s):
        got = quadrature(tab, l, 0.37, phis, dphis)
        assert got.shape == (B, d)
        for b in range(B):
            one = quadrature(tab, l, 0.37, phis[b].copy(), dphis[b].copy())
            assert got[b].tobytes() == one.tobytes()
            if l:
                assert every[b, l - 1].tobytes() == one.tobytes()
                block = quadrature(tab, rows, 0.37, phis[b].copy(), dphis[b].copy())
                assert block[l - 1].tobytes() == one.tobytes()
    with pytest.raises(ValueError):
        quadrature(tab, tab.s, 0.37, phis, dphis)
    with pytest.raises(ValueError):
        quadrature(tab, [1, tab.s], 0.37, phis, dphis)


@given(a=st.floats(-10, 10), b=st.floats(-10, 10),
       dt=st.floats(1e-3, 1.0))
def test_quadrature_linear_in_fluxes(a, b, dt):
    """I_l is a linear functional of the stage flux samples."""
    tab = builtin(6)
    phi1 = np.array([1.0, -2.0, 0.5])
    phi2 = np.array([0.3, 4.0, -1.0])
    dphi1 = np.array([2.0, 0.1, -0.7])
    dphi2 = np.array([-1.5, 0.0, 3.0])
    for l in range(tab.s):
        lhs = quadrature(tab, l, dt, a * phi1 + b * phi2,
                         a * dphi1 + b * dphi2)
        rhs = (a * quadrature(tab, l, dt, phi1, dphi1)
               + b * quadrature(tab, l, dt, phi2, dphi2))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(dt=st.floats(1e-6, 2.0))
def test_quadrature_constant_flux_is_exact(dt):
    """A constant flux integrates to c_l * dt times the flux."""
    tab = builtin(8)
    phis = np.full(tab.s, 3.25)
    dphis = np.zeros(tab.s)
    for l in range(tab.s):
        got = quadrature(tab, l, dt, phis, dphis)
        assert got == pytest.approx(3.25 * tab.c[l] * dt, rel=1e-13)


def test_quadrature_weight_stacks_are_built_once_per_tableau():
    # A stage list's (m, 1, s) weight stacks are built on the first call and
    # reused after; an invalid list raises on every call and is never kept.
    tab = builtin(8)
    rng = np.random.default_rng(3)
    phis, dphis = rng.standard_normal((2, 5, tab.s, 2))
    rows = [1, 2, 3]
    first = quadrature(tab, rows, 0.1, phis, dphis)
    stacks = tab.stacks[(1, 2, 3)]
    assert stacks[0].tobytes() == tab.b1[rows, None].tobytes()
    assert stacks[1].tobytes() == tab.b2[rows, None].tobytes()
    assert stacks[0].shape == (3, 1, tab.s)
    again = quadrature(tab, rows, 0.1, phis, dphis)
    assert tab.stacks[(1, 2, 3)] is stacks and again.tobytes() == first.tobytes()
    assert builtin(8).stacks == {}  # every tableau builds its own
    for _ in range(2):
        with pytest.raises(ValueError):
            quadrature(tab, [1, tab.s], 0.1, phis, dphis)
        with pytest.raises(ValueError):
            quadrature(tab, [-1], 0.1, phis, dphis)
    assert list(tab.stacks) == [(1, 2, 3)]


def test_tableau_coefficients_are_read_only():
    # The cached weight stacks are copies of b1 and b2, so they must not change.
    tab = builtin(6)
    for name in ("c", "b1", "b2"):
        with pytest.raises(ValueError):
            getattr(tab, name)[0] = 1.0
    b1 = np.zeros((2, 2))
    TwoDerivativeTableau(q=4, s=2, c=[0.0, 1.0], b1=b1, b2=b1)
    b1[0, 0] = 1.0  # the caller's array stays its own, and writable
