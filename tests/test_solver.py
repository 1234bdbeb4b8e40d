"""Serial predictor-corrector: exactness, variants, adaptivity, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from hbpc.core import SplitProblem
from hbpc.newton import NewtonConfig
from hbpc.problems import BUILTIN, make, pareschi_russo, scalar_pow, van_der_pol
from hbpc.solver import (CapExceededError, NoConvergenceError, RunResult,
                         SolverConfig, StageSource, adaptive_kmax, integrate,
                         limit_integrate)
from hbpc.tableaux import builtin


def _constant_flux_problem(c=2.0, dim=1, t_end=1.0):
    cvec = np.full(dim, c)
    zero = np.zeros((dim, dim))
    return SplitProblem(
        dim=dim,
        phi_e=lambda w: cvec.copy(),
        phi_i=lambda w: np.zeros(dim),
        w0=np.zeros(dim), t_end=t_end,
        jac_e=lambda w: zero, jac_i=lambda w: zero,
        dphi_i_jac=lambda w: zero,
        exact=lambda t: cvec * t)


def _pure_implicit_decay(t_end=0.5):
    return SplitProblem(
        dim=1,
        phi_e=lambda w: np.zeros(1),
        phi_i=lambda w: -w,
        w0=np.ones(1), t_end=t_end,
        jac_e=lambda w: np.zeros((1, 1)),
        jac_i=lambda w: -np.eye(1),
        dphi_i_jac=lambda w: np.eye(1),
        exact=lambda t: np.exp(-t) * np.ones(1))


@pytest.mark.parametrize("variant", ["Alg1", "Alg2", "LO"])
def test_constant_flux_is_exact_in_every_iterate(variant):
    p = _constant_flux_problem()
    run = integrate(p, SolverConfig(variant=variant, q=4, kmax=3, n_steps=5))
    assert run.errors is not None
    assert np.all(run.errors < 1e-13)
    assert run.updates[0] == pytest.approx([0.0])
    assert run.updates[-1] == pytest.approx([2.0], rel=1e-14)


def test_predictor_stage_closed_form():
    # Pure implicit phi(w) = -w: predictor stage l solves
    # w (1 + a + a^2/2) = w_src with a = c_l dt.
    from hbpc.solver import predictor_block
    from hbpc.core import eval_bundle

    p = _pure_implicit_decay()
    tab = builtin(4)
    dt = 0.125
    src = StageSource(p.w0.copy(), eval_bundle(p, p.w0))
    ncfg = NewtonConfig(rel_tol=1e-14, abs_tol=1e-15)
    ws, fs, results = predictor_block(p, tab, dt, src, ncfg)
    for l, c in enumerate(tab.c):
        a = c * dt
        assert ws[l][0] == pytest.approx(1.0 / (1.0 + a + 0.5 * a * a),
                                         rel=1e-12)
    assert results[0].iters == 0  # stage 0 is a copy


@pytest.mark.parametrize("kw", [
    {"variant": "Alg3"},
    {"kmax": 0},
    {"n_steps": 0},
    {"limit_tol": 0.0},
    {"limit_tol": np.nan},
    {"limit_tol": np.inf},
    {"limit_max_sweeps": 0},
    {"corrector_start": "blue"},
    {"q": 5},
    {"kmax": 2.5},
    {"n_steps": 2.5},
    {"limit_max_sweeps": 2.5},
])
def test_solver_config_validation(kw):
    with pytest.raises(ValueError):
        SolverConfig(**kw)


def test_errors_none_without_reference():
    p = SplitProblem(dim=1, phi_e=lambda w: -w, phi_i=lambda w: np.zeros(1),
                     w0=np.ones(1), t_end=0.3)
    run = integrate(p, SolverConfig(n_steps=3))
    assert run.errors is None
    assert run.final_last_w[-1].shape == (1,)


def test_zero_flux_keeps_state_fixed():
    p = SplitProblem(dim=2, phi_e=lambda w: np.zeros(2),
                     phi_i=lambda w: np.zeros(2),
                     w0=np.array([1.0, -2.0]), t_end=1.0,
                     exact=lambda t: np.array([1.0, -2.0]))
    run = integrate(p, SolverConfig(q=6, kmax=2, n_steps=4))
    assert np.all(run.errors == 0.0)
    assert np.all(run.updates == run.updates[0])


def test_integrate_is_deterministic():
    p = scalar_pow()
    cfg = SolverConfig(q=4, kmax=3, n_steps=12)
    a = integrate(p, cfg)
    b = integrate(p, cfg)
    assert np.array_equal(a.updates, b.updates)
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.newton_per_iterate, b.newton_per_iterate)


def test_update_trajectory_shape_and_seed():
    p = scalar_pow()
    run = integrate(p, SolverConfig(n_steps=7))
    assert run.updates.shape == (8, 1)
    assert run.updates[0] == pytest.approx(p.w0)


def test_fourth_order_error_decay():
    p = scalar_pow()
    e = [integrate(p, SolverConfig(q=4, kmax=3, n_steps=n)).errors[-1]
         for n in (10, 20)]
    ratio = e[0] / e[1]
    assert 10.0 < ratio < 26.0  # 2^4 = 16 up to pre-asymptotic wiggle


def test_third_order_predictor_beats_second_order():
    p = scalar_pow()
    slopes = {}
    for variant in ("Alg1", "Alg2"):
        e = [integrate(p, SolverConfig(variant=variant, q=4, kmax=1,
                                       n_steps=n)).errors[0]
             for n in (20, 40)]
        slopes[variant] = np.log2(e[0] / e[1])
    assert slopes["Alg1"] < 2.5
    assert slopes["Alg2"] > 2.5


def test_lo_variant_runs_all_lanes():
    p = scalar_pow()
    run = integrate(p, SolverConfig(variant="LO", q=4, kmax=4, n_steps=16))
    assert run.errors.shape == (5,)
    assert np.all(np.isfinite(run.errors))
    assert run.errors[-1] < run.errors[0]


def test_corrector_start_red_matches_hierarchical_closely():
    p = scalar_pow()
    tight = NewtonConfig(rel_tol=1e-12, abs_tol=1e-15)
    a = integrate(p, SolverConfig(q=4, kmax=3, n_steps=10, newton=tight))
    b = integrate(p, SolverConfig(q=4, kmax=3, n_steps=10, newton=tight,
                                  corrector_start="red"))
    # same fixed points, different Newton starts: solutions agree to tolerance
    assert a.updates[-1] == pytest.approx(b.updates[-1], rel=1e-9)


def test_limit_dispatch_and_sweep_bookkeeping():
    p = scalar_pow()
    run = integrate(p, SolverConfig(variant="Limit", q=4, n_steps=5))
    assert isinstance(run, RunResult)
    assert run.errors.shape == (1,)
    assert run.sweeps_per_step is not None and len(run.sweeps_per_step) == 5
    assert all(s >= 1 for s in run.sweeps_per_step)
    assert run.newton_per_iterate.shape == (1,)


def test_limit_requires_limit_variant():
    p = scalar_pow()
    with pytest.raises(ValueError):
        limit_integrate(p, SolverConfig(variant="Alg1", n_steps=2))


def test_limit_sweep_cap_raises():
    p = scalar_pow()
    cfg = SolverConfig(variant="Limit", q=4, n_steps=2, limit_max_sweeps=1)
    with pytest.raises(NoConvergenceError):
        limit_integrate(p, cfg)


def test_limit_beats_fixed_small_kmax():
    p = scalar_pow()
    e_fixed = integrate(p, SolverConfig(q=6, kmax=1, n_steps=8)).errors[-1]
    e_limit = integrate(p, SolverConfig(variant="Limit", q=6, n_steps=8)).errors[0]
    assert e_limit < e_fixed


def test_adaptive_kmax_reaches_the_limit_error():
    p = scalar_pow()
    base = SolverConfig(q=4, n_steps=8)
    kmax_used, run = adaptive_kmax(p, base, start_kmax=1)
    assert kmax_used >= 2  # at least one doubling happened
    e_limit = integrate(p, SolverConfig(variant="Limit", q=4, n_steps=8)).errors[0]
    assert run.errors[-1] == pytest.approx(e_limit, rel=0.02)


def test_adaptive_kmax_cap_and_validation():
    p = scalar_pow()
    with pytest.raises(CapExceededError):
        adaptive_kmax(p, SolverConfig(q=4, n_steps=4), start_kmax=2, cap=3)
    with pytest.raises(ValueError):
        adaptive_kmax(p, SolverConfig(q=4, n_steps=4), start_kmax=0)
    bare = SplitProblem(dim=1, phi_e=lambda w: -w,
                        phi_i=lambda w: np.zeros(1), w0=np.ones(1), t_end=0.2)
    with pytest.raises(ValueError):
        adaptive_kmax(bare, SolverConfig(q=4, n_steps=4), start_kmax=1)


def test_keep_traces_records_every_step():
    p = pareschi_russo(eps=1.0)
    run = integrate(p, SolverConfig(q=4, kmax=2, n_steps=3), keep_traces=True)
    assert len(run.traces) == 3
    tr = run.traces[0]
    assert tr.newton_iters.shape == (3,)
    assert len(tr.last_stage_w) == 3
    assert run.newton_per_iterate == pytest.approx(
        sum(t.newton_iters for t in run.traces))


@pytest.mark.parametrize("variant,kmax", [("Alg1", 3), ("Limit", 1)])
def test_traces_sum_to_the_run_totals(variant, kmax):
    cfg = SolverConfig(variant=variant, q=4, kmax=kmax, n_steps=4,
                       newton=NewtonConfig(max_iter=1))
    run = integrate(scalar_pow(), cfg, keep_traces=True)
    assert run.iter_cap_hits > 0
    assert sum(tr.iter_cap_hits for tr in run.traces) == run.iter_cap_hits
    assert np.array_equal(sum(tr.newton_iters for tr in run.traces),
                          run.newton_per_iterate)
    if variant == "Limit":
        assert [tr.sweeps for tr in run.traces] == run.sweeps_per_step


# -- the fused, warm-started stage solve ----------------------------------------

_CALLBACKS = ("phi_e", "phi_i", "jac_e", "jac_i", "dphi_i_jac")


def _counted(p):
    """Copy of ``p`` whose callbacks count their calls, built the way an
    outside tracer builds it (``dataclasses.replace``)."""
    calls = dict.fromkeys(_CALLBACKS, 0)

    def wrap(name, fn):
        def counted(w):
            calls[name] += 1
            return fn(w)
        return counted

    return replace(p, **{cb: wrap(cb, getattr(p, cb)) for cb in _CALLBACKS
                         if getattr(p, cb) is not None}), calls


def _start(p, w):
    from hbpc.core import eval_bundle

    return StageSource(w, eval_bundle(p, w))


def _predictor_stage(p, steps=200):
    """(a, rhs, start) of the last predictor stage of the first step."""
    a = p.t_end / steps
    start = _start(p, p.w0.copy())
    return a, p.w0 + a * start.f.phi_e + 0.5 * a * a * start.f.dphi_e, start


def _fd_problem():
    base = van_der_pol(0.1)
    return SplitProblem(dim=2, phi_e=base.phi_e, phi_i=base.phi_i,
                        w0=base.w0, t_end=base.t_end, name="fd_van_der_pol")


def _problem(name):
    return _fd_problem() if name == "fd" else make(name)


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_stage_solve_evaluates_each_newton_state_once(name, monkeypatch):
    # The start state's fluxes come from its bundle, so only the states
    # Newton moves to call the fluxes; Phi_I' at the start is needed once,
    # for the first Newton matrix.
    import hbpc.solver as solver_mod

    def no_bundle(*args):
        raise AssertionError("the stage solve must not call eval_bundle")

    a, rhs, start = _predictor_stage(make(name))
    p, calls = _counted(make(name))
    monkeypatch.setattr(solver_mod, "eval_bundle", no_bundle)
    _, _, res = solver_mod._solve_stage(p, a, rhs, start, NewtonConfig())
    assert res.iters >= 1
    assert calls == {"phi_e": res.iters, "phi_i": res.iters,
                     "jac_i": res.iters + 1, "jac_e": 1,
                     "dphi_i_jac": res.iters}


@pytest.mark.parametrize("name", sorted(BUILTIN) + ["fd"])
def test_stage_solve_converged_at_start_calls_nothing(name):
    from hbpc.solver import _solve_stage

    p = _problem(name)
    a = p.t_end / 200
    start = _start(p, p.w0.copy())
    rhs = start.w - a * start.f.phi_i + 0.5 * a * a * start.f.dphi_i
    counted, calls = _counted(p)
    w, f, res = _solve_stage(counted, a, rhs, start, NewtonConfig())
    assert res.iters == 0
    assert w is start.w and f is start.f
    assert calls == dict.fromkeys(_CALLBACKS, 0)


def _plain_newton(p, a, rhs, w0):
    """The stage solve with every callback evaluated at every state, the
    start included: the reference the warm start must reproduce bitwise."""
    from hbpc.core import fd_jacobian
    from hbpc.newton import solve

    half_a2 = 0.5 * a * a

    def F(w):
        with np.errstate(all="ignore"):
            fi = p.phi_i(w)
            di = p.jac_i(w) @ (p.phi_e(w) + p.phi_i(w))
            return w - a * fi + half_a2 * di - rhs

    def J(w):
        if p.dphi_i_jac is None:
            return fd_jacobian(F, w)
        return np.eye(p.dim) - a * p.jac_i(w) + half_a2 * p.dphi_i_jac(w)

    return solve(F, J, w0.copy(), NewtonConfig())


@pytest.mark.parametrize("name", sorted(BUILTIN) + ["fd"])
def test_warm_stage_solve_equals_cold_solve_bitwise(name):
    from hbpc.solver import _solve_stage

    p = _problem(name)
    a, rhs, start = _predictor_stage(p)
    cold_start = _start(p, start.w.copy())
    warm = _solve_stage(p, a, rhs, start, NewtonConfig())
    cold = _solve_stage(p, a, rhs, cold_start, NewtonConfig())
    plain = _plain_newton(p, a, rhs, start.w)
    assert warm[2].iters == cold[2].iters == plain.iters >= 1
    assert warm[2].residual_history == cold[2].residual_history
    assert warm[2].residual_history == plain.residual_history
    for w in (cold[0], plain.w):
        assert warm[0].tobytes() == w.tobytes()
    for field in ("phi_e", "phi_i", "dphi_e", "dphi_i", "phi", "dphi"):
        assert getattr(warm[1], field).tobytes() == getattr(cold[1], field).tobytes()


@pytest.mark.parametrize("name", sorted(BUILTIN) + ["fd"])
def test_stage_solve_bundle_is_eval_bundle_bitwise(name):
    from hbpc.core import eval_bundle
    from hbpc.solver import _solve_stage

    p = _problem(name)
    a, rhs, start = _predictor_stage(p)
    w, f, res = _solve_stage(p, a, rhs, start, NewtonConfig())
    assert res.iters >= 1
    ref = eval_bundle(p, w)
    for field in ("phi_e", "phi_i", "dphi_e", "dphi_i", "phi", "dphi"):
        assert getattr(f, field).tobytes() == getattr(ref, field).tobytes(), field


def test_stage_solve_bundle_follows_the_returned_state(monkeypatch):
    # A Newton that returns a state its residual never saw must still get
    # the bundle of that state, not of the last one evaluated.
    import hbpc.newton as newton_mod
    from hbpc.core import eval_bundle
    from hbpc.solver import _solve_stage

    solve = newton_mod.solve

    def moved(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.w = res.w + 1e-3
        return res

    monkeypatch.setattr(newton_mod, "solve", moved)
    p = make("arenstorf")
    w, f, res = _solve_stage(p, *_predictor_stage(p), NewtonConfig())
    assert w is res.w
    assert f.dphi.tobytes() == eval_bundle(p, w).dphi.tobytes()


@pytest.mark.parametrize("bad", ["phi_e", "jac_e"])
def test_stage_solve_flags_nonfinite_at_the_solved_state(bad):
    # phi_e is finite only at the start state, so NaN first shows at the
    # states Newton moves to; jac_e is NaN everywhere, but only the converged
    # bundle (dPhi_E) ever evaluates it. The start bundle comes from the
    # unbroken problem, which agrees with the broken one at the start state
    # in every field the stage solve reads.
    from hbpc.core import NonFiniteError
    from hbpc.solver import _solve_stage

    p = _pure_implicit_decay()
    start = _start(p, np.ones(1))
    if bad == "phi_e":
        p = replace(p, phi_e=lambda w: np.full(1, 0.0 if w[0] == 1.0 else np.nan))
    else:
        p = replace(p, jac_e=lambda w: np.full((1, 1), np.nan))
    with pytest.raises(NonFiniteError):
        _solve_stage(p, 0.1, np.ones(1), start, NewtonConfig())


def _sweep_restacking_per_stage(p, tab, dt, red, blue_w, blue_f, gauss_seidel,
                                start):
    """A correction sweep that stacks the quadrature's fluxes afresh for
    every stage from ``fs[:l] + blue_f[l:]``: the reference for the one
    stack per sweep that ``correction_block`` updates row by row."""
    from hbpc.solver import _solve_stage
    from hbpc.tableaux import quadrature

    ws, fs, histories = [red.w], [red.f], [[]]
    for l in range(1, tab.s):
        quad_f = fs[:l] + list(blue_f[l:]) if gauss_seidel else blue_f
        i_l = quadrature(tab, l, dt, [b.phi for b in quad_f],
                         [b.dphi for b in quad_f])
        rhs = red.w - dt * blue_f[l].phi_i + 0.5 * dt * dt * blue_f[l].dphi_i + i_l
        src = StageSource(blue_w[l], blue_f[l]) if start == "hierarchical" else red
        with np.errstate(all="ignore"):
            w, f, res = _solve_stage(p, dt, rhs, src, NewtonConfig())
        ws.append(w)
        fs.append(f)
        histories.append(res.residual_history)
    return ws, fs, histories


@pytest.mark.parametrize("gauss_seidel", [True, False], ids=["gauss_seidel", "jacobi"])
@pytest.mark.parametrize("start", ["hierarchical", "red"])
@pytest.mark.parametrize("name", sorted(BUILTIN) + ["fd"])
def test_correction_sweep_equals_restacking_per_stage_bitwise(name, start,
                                                              gauss_seidel):
    from hbpc.solver import correction_block, predictor_block

    p = _problem(name)
    tab = builtin(8)
    dt = p.t_end / 40
    src = _start(p, p.w0.copy())
    blue_w, blue_f, _ = predictor_block(p, tab, dt, src, NewtonConfig())
    for _ in range(2):  # the second sweep starts from corrected stages
        ws, fs, results = correction_block(p, tab, dt, src, blue_w, blue_f,
                                           gauss_seidel, NewtonConfig(), start)
        ref_ws, ref_fs, ref_hist = _sweep_restacking_per_stage(
            p, tab, dt, src, blue_w, blue_f, gauss_seidel, start)
        assert sum(r.iters for r in results) >= 1
        for l in range(tab.s):
            assert ws[l].tobytes() == ref_ws[l].tobytes()
            for field in ("phi_e", "phi_i", "dphi_e", "dphi_i", "phi", "dphi"):
                assert (getattr(fs[l], field).tobytes()
                        == getattr(ref_fs[l], field).tobytes()), field
            if l:
                assert results[l].residual_history == ref_hist[l]
        blue_w, blue_f = ws, fs


@pytest.mark.parametrize("start", ["hierarchical", "red"])
@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_gauss_seidel_quadrature_row_zero_is_the_red_term(name, start):
    # In a run the red term of Block(n, k) is not blue stage 0 (the red term
    # of Block(n, k-1)); here red is blue's last stage. A Gauss-Seidel sweep's
    # quadrature reads the red term's Phi and dPhi in row 0, a Jacobi sweep's
    # blue stage 0's, and the two differ from stage 1 on.
    from hbpc.solver import correction_block, predictor_block

    p = make(name)
    tab = builtin(8)
    dt = p.t_end / 40
    blue_w, blue_f, _ = predictor_block(p, tab, dt, _start(p, p.w0.copy()), NewtonConfig())
    red = StageSource(blue_w[-1], blue_f[-1])
    assert red.f.phi.tobytes() != blue_f[0].phi.tobytes()
    ws, fs, results = correction_block(p, tab, dt, red, blue_w, blue_f, True,
                                       NewtonConfig(), start)
    ref_ws, ref_fs, ref_hist = _sweep_restacking_per_stage(
        p, tab, dt, red, blue_w, blue_f, True, start)
    for l in range(1, tab.s):
        assert ws[l].tobytes() == ref_ws[l].tobytes()
        assert fs[l].dphi.tobytes() == ref_fs[l].dphi.tobytes()
        assert results[l].residual_history == ref_hist[l]
    jacobi_ws = _sweep_restacking_per_stage(p, tab, dt, red, blue_w, blue_f, False,
                                            start)[0]
    assert ws[1].tobytes() != jacobi_ws[1].tobytes()


# -- the fixed-point skip in run_blocks -----------------------------------------

TIGHT = NewtonConfig(rel_tol=1e-13, abs_tol=1e-15)
_DIGEST_STEPS = {"scalar_pow": 20, "pareschi_russo": 40, "van_der_pol": 20,
                 "arenstorf": 40, "fd": 20}


@pytest.mark.parametrize("start", ["hierarchical", "red"])
@pytest.mark.parametrize("variant", ["Alg1", "Alg2", "LO"])
@pytest.mark.parametrize("name", sorted(BUILTIN) + ["fd"])
def test_every_block_bundle_is_eval_bundle_of_its_state(name, variant, start):
    # The skip rests on this: a block's outputs depend on its input states
    # alone, because every bundle the loop hands on is eval_bundle's.
    from hbpc.core import eval_bundle
    from hbpc.solver import run_blocks

    p = _problem(name)
    t_end = 1.0 if name == "arenstorf" else p.t_end  # the digest's slice
    p = replace(p, t_end=3 * t_end / _DIGEST_STEPS[name])
    cfg = SolverConfig(variant=variant, q=8, kmax=5, n_steps=3, corrector_start=start)
    seen = []

    def send(block, ws, fs):
        seen.append(block)
        for w, f in zip(ws, fs):
            ref = eval_bundle(p, w)
            for field in ("phi_e", "phi_i", "dphi_e", "dphi_i", "phi", "dphi"):
                assert getattr(f, field).tobytes() == getattr(ref, field).tobytes(), \
                    (block, field)

    run_blocks(p, cfg, _start(p, p.w0.copy()), range(cfg.kmax + 1), send=send)
    assert len(seen) == cfg.n_steps * (cfg.kmax + 1)


def test_reads_same_compares_the_state_bits():
    from hbpc.solver import _reads_same

    red, blue = np.ones(1), [np.ones(1), np.zeros(1)]
    read = (red, blue, None)
    assert _reads_same(red, list(blue), read)
    assert _reads_same(red.copy(), [b.copy() for b in blue], read)
    assert not _reads_same(np.nextafter(red, 2.0), blue, read)
    assert not _reads_same(red, [blue[0], -blue[1]], read)  # -0.0: equal, not the bits


def _skip_cases():
    arenstorf = make("arenstorf")
    return {
        "scalar_pow-Alg1": (make("scalar_pow"), SolverConfig(
            variant="Alg1", q=8, kmax=9, n_steps=80, newton=TIGHT)),
        "arenstorf-Alg2": (replace(arenstorf, t_end=arenstorf.t_end * 20 / 100000),
                           SolverConfig(variant="Alg2", q=8, kmax=15, n_steps=20)),
        "van_der_pol-LO": (make("van_der_pol"), SolverConfig(
            variant="LO", q=8, kmax=9, n_steps=20)),
        "scalar_pow-Alg1-red": (make("scalar_pow"), SolverConfig(
            variant="Alg1", q=8, kmax=9, n_steps=40, newton=TIGHT,
            corrector_start="red")),
    }


def _assert_runs_bitwise_equal(a, b):
    assert a.updates.tobytes() == b.updates.tobytes()
    assert np.array(a.final_last_w).tobytes() == np.array(b.final_last_w).tobytes()
    assert (a.errors is None and b.errors is None
            or a.errors.tobytes() == b.errors.tobytes())
    assert np.array_equal(a.newton_per_iterate, b.newton_per_iterate)
    assert a.iter_cap_hits == b.iter_cap_hits
    assert len(a.traces) == len(b.traces)
    for ta, tb in zip(a.traces, b.traces):
        assert np.array_equal(ta.newton_iters, tb.newton_iters)
        assert ta.residual_norms == tb.residual_norms
        assert np.array(ta.last_stage_w).tobytes() == np.array(tb.last_stage_w).tobytes()
        assert ta.iter_cap_hits == tb.iter_cap_hits


@pytest.mark.parametrize("case", sorted(_skip_cases()))
def test_fixed_point_skip_is_bitwise_neutral(case, monkeypatch):
    import hbpc.solver as solver_mod

    p, cfg = _skip_cases()[case]
    skipped = integrate(p, cfg, keep_traces=True)
    monkeypatch.setattr(solver_mod, "_reads_same", lambda *args: False)
    computed = integrate(p, cfg, keep_traces=True)
    _assert_runs_bitwise_equal(skipped, computed)


def test_fixed_point_skip_fires(monkeypatch, computed_corrections):
    import hbpc.solver as solver_mod

    p, cfg = _skip_cases()["scalar_pow-Alg1"]
    integrate(p, cfg)
    assert sum(computed_corrections) == 529  # of kmax * n_steps = 720
    computed_corrections.clear()
    monkeypatch.setattr(solver_mod, "_reads_same", lambda *args: False)
    integrate(p, cfg)
    assert sum(computed_corrections) == cfg.kmax * cfg.n_steps


def test_fixed_point_skip_fires_from_red_starts(monkeypatch, computed_corrections):
    # a red-start solve returns a new object even where its bits equal the blue
    # stage's, so only a comparison of bits finds the fixed point
    import hbpc.solver as solver_mod

    p, cfg = _skip_cases()["scalar_pow-Alg1-red"]
    skipped = integrate(p, cfg, keep_traces=True)
    assert cfg.kmax * cfg.n_steps - sum(computed_corrections) >= 31
    monkeypatch.setattr(solver_mod, "_reads_same", lambda *args: False)
    _assert_runs_bitwise_equal(skipped, integrate(p, cfg, keep_traces=True))
