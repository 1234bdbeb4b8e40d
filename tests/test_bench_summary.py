"""scripts/bench_summary.py: which runs it pairs, which checkouts it refuses,
and the per-step totals it writes beside the per-solve ratios."""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_summary.py")

NOTES = {"cpu_model": "test cpu", "nproc": 2, "python": "3", "numpy": "2", "scipy": "1"}


def _write_run(checkout, workload, seed, trace, metrics):
    out = checkout / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    run = {"notes": {**NOTES, "workload": workload, "seed": seed, "trace": trace},
           "result": {"attempted": 4, "failed": 0,
                      "metrics": {k: {"value": v} for k, v in metrics.items()}}}
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(run))


def _e2e(rate):
    return {"steps_per_s": rate, "err_digits": 12.0, "peak_rss_mb": 80.0, "setup_s": 1.0}


_TRACED = {"newton.solves_per_step": 8.0, "newton.iters_per_solve": 1.5,
           "newton.lu_per_solve": 1.25, "newton.us_per_solve": 40.0,
           "problems.phi_e_per_solve": 2.5, "solver.blocks_per_step": 4.0}


def _checkouts(tmp_path, parent_rates, change_rates, stray=None):
    """Two checkouts with study runs at seeds 501.. and one traced run each;
    ``stray`` adds a fast change run at that seed."""
    sides = {}
    for side, rates in (("parent", parent_rates), ("change", change_rates)):
        checkout = tmp_path / side
        for seed, rate in zip(range(501, 501 + len(rates)), rates):
            _write_run(checkout, "study", seed, 0, _e2e(rate))
        _write_run(checkout, "study", 1, 1, _TRACED)
        sides[side] = checkout
    if stray is not None:
        _write_run(sides["change"], "study", stray, 0, _e2e(1e9))
    return sides


def _summarize(tmp_path, sides, seeds):
    return subprocess.run(
        [sys.executable, SCRIPT, str(sides["parent"]), str(sides["change"]),
         "--label", "t", "--seeds", seeds],
        cwd=tmp_path, capture_output=True, text=True)


def test_pairs_only_the_seeds_given_and_adds_per_step_totals(tmp_path):
    sides = _checkouts(tmp_path, [100.0, 110.0, 120.0], [105.0, 100.0, 130.0], stray=7)
    proc = _summarize(tmp_path, sides, "501-503")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert summary["seeds"] == [501, 502, 503]
    study = summary["workloads"]["study"]
    assert study["change"]["seeds"] == [501, 502, 503]  # seed 7 left out
    assert study["change"]["steps_per_s"]["values"] == [105.0, 100.0, 130.0]
    assert (study["pairs"], study["pairs_change_faster"]) == (3, 2)
    per_step = study["change"]["per_step"]
    assert per_step == {"newton.iters_per_step": 12.0, "newton.lu_per_step": 10.0,
                        "newton.us_per_step": 320.0, "problems.phi_e_per_step": 20.0}
    assert study["change"]["per_layer"]["newton.iters_per_solve"] == 1.5


def test_a_seed_list_picks_single_seeds(tmp_path):
    sides = _checkouts(tmp_path, [100.0, 110.0, 120.0], [105.0, 100.0, 130.0])
    proc = _summarize(tmp_path, sides, "501,503")
    assert proc.returncode == 0, proc.stderr
    study = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["study"]
    assert study["parent"]["seeds"] == [501, 503]
    assert (study["pairs"], study["pairs_change_faster"]) == (2, 2)


@pytest.mark.parametrize("seeds", ["501-504", "500-503"])
def test_a_checkout_lacking_a_seed_is_refused(tmp_path, seeds):
    sides = _checkouts(tmp_path, [100.0, 110.0, 120.0], [105.0, 100.0, 130.0], stray=504)
    proc = _summarize(tmp_path, sides, seeds)
    assert proc.returncode != 0
    assert "no study run" in proc.stderr and str(sides["parent"]) in proc.stderr
    assert not (tmp_path / "BENCH_t.json").exists()
