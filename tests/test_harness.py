"""Study harness: CSV round-trips, order fits, caches, speedup bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbpc.harness as harness
from hbpc.core import SplitProblem
from hbpc.harness import (ConvergenceRow, ConvergenceTable,
                          InsufficientDataError, MismatchedResultsError,
                          MissingReferenceError, StudyConfig, cache_key,
                          estimate_order, load_reference, newton_partition,
                          parse_csv, render_csv, render_limit_csv,
                          resolve_reference, run_convergence_study,
                          run_limit_study, run_speedup_study, save_reference,
                          theoretical_speedup, write_csv)


def _table(dts, errs_per_k, t_end=1.0, newton=(3, 4)):
    rows = tuple(
        ConvergenceRow(n=round(t_end / dt), dt=dt,
                       errs=tuple(col[i] for col in errs_per_k),
                       wallclock=0.0, newton=newton)
        for i, dt in enumerate(dts))
    return ConvergenceTable(rows, t_end)


# ---------------------------------------------------------------- CSV format

def test_csv_round_trip_exact():
    t = _table([0.1, 0.05, 0.025],
               [[1e-2, 2.5e-3, 6.25e-4], [3e-5, 1.9e-6, 1.2e-7]])
    assert parse_csv(render_csv(t), t.t_end) == t


def test_csv_header_and_cells():
    t = _table([0.5, 0.25], [[1e-1, 2.5e-2]], newton=(7,))
    text = render_csv(t)
    lines = text.split("\n")
    assert lines[0] == "N,err_k0,wallclock_s,newton_w0"
    assert lines[1].split(",")[0] == "2"
    assert lines[1].split(",")[-1] == "7"
    assert text.endswith("\n") and "\r" not in text


def test_csv_file_and_text_sources(tmp_path):
    t = _table([0.2, 0.1], [[1e-3, 2.5e-4]])
    path = tmp_path / "study.csv"
    write_csv(path, t)
    assert parse_csv(str(path), t.t_end) == t
    with open(path) as fh:
        assert parse_csv(fh, t.t_end) == t


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(1e-12, 1e3), min_size=1, max_size=4),
       st.integers(1, 6))
def test_csv_round_trip_property(errs, n_iterates):
    rows = tuple(
        ConvergenceRow(n=n, dt=2.0 / n,
                       errs=tuple((e + k) / (k + 1.0) for k in range(n_iterates)),
                       wallclock=0.0, newton=(n, 2 * n))
        for n, e in zip((10, 20, 40, 80), errs))
    t = ConvergenceTable(rows, 2.0)
    assert parse_csv(render_csv(t), 2.0) == t


def test_limit_csv_blanks_and_flags():
    rows = [
        harness.LimitRow(eps=0.1, n=20, kmax_used=8, err_adaptive=1e-5,
                         err_limit=1.002e-5, agree=True),
        harness.LimitRow(eps=0.1, n=40, kmax_used=None, err_adaptive=None,
                         err_limit=2e-7, agree=None),
        harness.LimitRow(eps=0.1, n=80, kmax_used=16, err_adaptive=1e-8,
                         err_limit=2e-8, agree=False),
    ]
    text = render_limit_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "eps,N,kmax_used,err_adaptive,err_limit,agree"
    assert lines[1].split(",")[2] == "8"
    assert lines[1].split(",")[-1] == "1"
    assert lines[2].split(",")[2] == ""
    assert lines[2].split(",")[3] == ""
    assert lines[2].split(",")[-1] == ""
    assert lines[3].split(",")[-1] == "0"


# ------------------------------------------------------------- order fitting

def test_estimate_order_pure_powers():
    dts = [0.1 / 2**i for i in range(5)]
    t = _table(dts, [[dt**2 for dt in dts], [3.0 * dt**4 for dt in dts]])
    slopes = estimate_order(t)
    assert slopes == pytest.approx([2.0, 4.0], abs=1e-9)


def test_estimate_order_accepts_plain_rows():
    dts = [0.1, 0.05, 0.025]
    t = _table(dts, [[dt**3 for dt in dts]])
    assert estimate_order(list(t.rows))[0] == pytest.approx(3.0, abs=1e-9)


def test_estimate_order_needs_three_rows():
    t = _table([0.1, 0.05], [[1e-2, 1e-3]])
    with pytest.raises(InsufficientDataError):
        estimate_order(t)


def test_estimate_order_masks_floor_rows():
    dts = [0.1, 0.05, 0.025, 0.0125]
    clean = [dt**2 for dt in dts]
    floored = [1e-4, 1e-5, 5e-14, 2e-14]  # last two are noise
    slopes = estimate_order(_table(dts, [clean, floored]))
    assert slopes[0] == pytest.approx(2.0, abs=1e-9)
    assert slopes[1] == pytest.approx(math.log(10) / math.log(2), abs=1e-9)


def test_estimate_order_all_floor_is_nan():
    dts = [0.1, 0.05, 0.025]
    slopes = estimate_order(_table(dts, [[dt for dt in dts],
                                         [1e-15, 2e-15, 3e-16]]))
    assert slopes[0] == pytest.approx(1.0, abs=1e-9)
    assert np.isnan(slopes[1])


def test_estimate_order_validates_rows():
    bad = ConvergenceTable((
        ConvergenceRow(10, 0.1, (1e-2,), 0.0, (1,)),
        ConvergenceRow(20, 0.05, (1e-3, 1e-4), 0.0, (1,)),
        ConvergenceRow(40, 0.025, (1e-4,), 0.0, (1,))), 1.0)
    with pytest.raises(ValueError):
        estimate_order(bad)
    neg = _table([0.1, 0.05, 0.025], [[1e-2, -1e-3, 1e-4]])
    with pytest.raises(ValueError):
        estimate_order(neg)


# ------------------------------------------------------- partitions & config

def test_newton_partition_shapes():
    assert newton_partition("Limit", 5) == [[0]]
    assert newton_partition("LO", 2) == [[0], [1], [2]]
    assert newton_partition("Alg1", 3) == [[0, 1], [2, 3]]
    assert newton_partition("Alg2", 7)[3] == [6, 7]
    assert newton_partition("Alg1", 4) == [[0, 1, 2, 3, 4]]


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(problem="scalar_pow", n_values=())
    with pytest.raises(ValueError):
        StudyConfig(problem="scalar_pow", n_values=(40, 40))
    with pytest.raises(ValueError):
        StudyConfig(problem="scalar_pow", variant="Limit", parallel=True)
    cfg = StudyConfig(problem="scalar_pow", n_values=(10.0, 20.0))
    assert cfg.n_values == (10, 20)


# ----------------------------------------------------------- reference cache

def test_reference_cache_round_trip(tmp_path):
    state = np.array([1.25, -0.5])
    save_reference("demo_eps1", 5.0, state, str(tmp_path))
    t_end, back = load_reference("demo_eps1", str(tmp_path))
    assert t_end == 5.0
    assert np.array_equal(back, state)
    assert load_reference("absent", str(tmp_path)) is None


def test_cache_key_formatting():
    assert cache_key("van_der_pol", eps=1e-3) == "van_der_pol_eps0.001"
    assert cache_key("pareschi_russo", eps=1.0) == "pareschi_russo_eps1"
    assert cache_key("scalar_pow", alpha=0.2) == "scalar_pow_alpha0.2"
    assert cache_key("arenstorf") == "arenstorf"


def test_resolve_reference_precedence_and_checks(tmp_path):
    # explicit beats exact
    cfg = StudyConfig(problem="scalar_pow", reference=[0.75])
    p = harness._study_problem(cfg)
    assert resolve_reference(p, cfg) == pytest.approx([0.75])
    # cached state must match the problem's horizon and dimension
    save_reference("pareschi_russo", 4.0, np.array([1.0, 2.0]), str(tmp_path))
    cfg = StudyConfig(problem="pareschi_russo", ref_cache=str(tmp_path))
    with pytest.raises(ValueError, match="t_end"):
        resolve_reference(harness._study_problem(cfg), cfg)
    save_reference("pareschi_russo", 5.0, np.array([1.0, 2.0, 3.0]),
                   str(tmp_path))
    with pytest.raises(ValueError, match="dimension"):
        resolve_reference(harness._study_problem(cfg), cfg)
    save_reference("pareschi_russo", 5.0, np.array([1.0, 2.0]), str(tmp_path))
    assert resolve_reference(harness._study_problem(cfg), cfg) == \
        pytest.approx([1.0, 2.0])


# ------------------------------------------------------------------- studies

def test_convergence_study_on_a_fixed_point():
    zero = np.zeros((1, 1))
    p = SplitProblem(dim=1, phi_e=lambda w: np.zeros(1),
                     phi_i=lambda w: np.zeros(1), w0=np.ones(1), t_end=1.0,
                     jac_e=lambda w: zero, jac_i=lambda w: zero,
                     dphi_i_jac=lambda w: zero, exact=lambda t: np.ones(1),
                     name="fixed")
    table = run_convergence_study(StudyConfig(problem=p, n_values=(4, 8, 16)))
    assert [r.n for r in table.rows] == [4, 8, 16]
    for r in table.rows:
        assert r.errs == (0.0,) * 4
        assert r.newton == (0, 0)
        assert r.wallclock == 0.0


def test_convergence_study_fourth_order_and_determinism():
    cfg = StudyConfig(problem="scalar_pow", q=4, kmax=3, n_values=(8, 16, 32))
    t1 = run_convergence_study(cfg)
    t2 = run_convergence_study(cfg)
    assert render_csv(t1) == render_csv(t2)
    slopes = estimate_order(t1)
    assert 3.2 < slopes[-1] < 4.8


def test_convergence_study_parallel_matches_serial():
    base = StudyConfig(problem="scalar_pow", q=4, kmax=3, n_values=(8, 16, 24))
    serial = run_convergence_study(base)
    parallel = run_convergence_study(dataclasses.replace(base, parallel=True))
    assert render_csv(serial) == render_csv(parallel)
    assert len(serial.rows[0].newton) == 2  # one column per iterate pair


def test_convergence_study_requires_reference():
    p = SplitProblem(dim=1, phi_e=lambda w: -w, phi_i=lambda w: np.zeros(1),
                     w0=np.ones(1), t_end=1.0, name="bare")
    with pytest.raises(MissingReferenceError):
        run_convergence_study(StudyConfig(problem=p, n_values=(4, 8, 16)))


def test_convergence_study_flushes_partial_csv(tmp_path, monkeypatch):
    out = tmp_path / "partial.csv"
    real = harness.integrate
    calls = {"n": 0}

    def failing(p, scfg, reference=None, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("boom")
        return real(p, scfg, reference=reference, **kw)

    monkeypatch.setattr(harness, "integrate", failing)
    cfg = StudyConfig(problem="scalar_pow", n_values=(4, 8, 16),
                      out=str(out))
    with pytest.raises(RuntimeError, match="boom"):
        run_convergence_study(cfg)
    table = parse_csv(str(out), 0.25)
    assert [r.n for r in table.rows] == [4]


def test_theoretical_speedup_values():
    assert theoretical_speedup("Alg1", 3, 100) == pytest.approx(400 / 202)
    assert theoretical_speedup("LO", 3, 100) == pytest.approx(400 / 103)
    assert theoretical_speedup("Alg1", 71, 1000) == pytest.approx(
        72000 / 2070)
    # pipelining the pairs approaches (kmax+1)/2 on long runs
    assert theoretical_speedup("Alg1", 7, 10**7) == pytest.approx(4.0, rel=1e-5)


def test_speedup_study_reports_and_guards(monkeypatch):
    cfg = StudyConfig(problem="scalar_pow", q=4, kmax=3, n_values=(8, 16),
                      timing=True)
    reports = run_speedup_study(cfg)
    assert [r.n for r in reports] == [8, 16]
    for r in reports:
        assert r.serial_s > 0 and r.parallel_s > 0
        assert r.speedup == pytest.approx(r.serial_s / r.parallel_s)
        assert r.theoretical == pytest.approx(
            theoretical_speedup("Alg1", 3, r.n))

    real = harness.integrate_parallel

    def corrupted(p, scfg, workers=None, reference=None, **kw):
        run = real(p, scfg, workers=workers, reference=reference, **kw)
        bad = run.updates.copy()
        bad[-1] += 1e-9
        return dataclasses.replace(run, updates=bad)

    monkeypatch.setattr(harness, "integrate_parallel", corrupted)
    with pytest.raises(MismatchedResultsError):
        run_speedup_study(cfg)


def test_limit_study_rows_and_blank_cells():
    cfg = StudyConfig(problem="van_der_pol", q=4, n_values=(15, 30),
                      limit_max_sweeps=2000)
    rows = run_limit_study(cfg, eps_values=(0.1,), start_kmax=2)
    assert len(rows) == 2
    for r in rows:
        assert r.eps == 0.1 and r.n in (15, 30)
        assert r.kmax_used is not None and r.kmax_used >= 4
        assert r.err_adaptive is not None and r.err_limit is not None
        assert r.agree is not None

    # a sweep cap of 1 leaves the limit column blank but keeps the adaptive one
    starved = dataclasses.replace(cfg, n_values=(15,), limit_max_sweeps=1)
    rows = run_limit_study(starved, eps_values=(0.1,), start_kmax=2)
    assert rows[0].err_limit is None and rows[0].agree is None
    assert rows[0].err_adaptive is not None

    with pytest.raises(ValueError):
        run_limit_study(dataclasses.replace(
            cfg, problem=harness._study_problem(cfg)), eps_values=(0.1,))
