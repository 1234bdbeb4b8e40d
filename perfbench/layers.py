"""Per-layer metrics computed from one traced pass.

Counts are per stage solve (one ``newton.solve`` call) unless the name says
otherwise; times are from the spans, and a self time is a span's duration
minus its child spans. A layer the workload does not run reports 0.
"""

from __future__ import annotations

import statistics

import hbpc.harness
import hbpc.pipeline

from tracing import CALLBACKS

PIPELINE_WORKERS = 2  # Alg1 kmax=3 pairs iterates on 2 workers
BLOCKS = ("solver.predictor_block", "solver.correction_block")


def per_layer(wl, tracer, log, traced_rep, untraced_reps, overhead_ratio) -> dict:
    tot = tracer.totals()
    counts = tracer.counts()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0, 0.0))[0]

    def seconds(name, part=1):
        return tot.get(name, (0, 0.0, 0.0, 0.0))[part]

    def ratio(a, b):
        return a / b if b else 0.0

    solves = calls("newton.solve")
    steps = sum(rec.steps for rec in traced_rep.records)
    blocks = sum(calls(b) for b in BLOCKS)
    m = {}
    for cb in CALLBACKS:
        m[f"problems.{cb}_per_solve"] = (ratio(calls("problems." + cb), solves), "count")
    m["problems.self_us_per_solve"] = (
        ratio(sum(seconds("problems." + cb, 2) for cb in CALLBACKS), solves) * 1e6, "us")

    m["core.eval_bundle_per_solve"] = (ratio(calls("core.eval_bundle"), solves), "count")
    m["core.eval_bundle_self_us"] = (
        ratio(seconds("core.eval_bundle", 2), calls("core.eval_bundle")) * 1e6, "us")
    m["core.isfinite_per_solve"] = (ratio(counts.get("core.isfinite", 0), solves), "count")

    iters = counts.get("newton.iters", 0)
    m["newton.solves_per_step"] = (ratio(solves, steps), "count")
    m["newton.iters_per_solve"] = (ratio(iters, solves), "count")
    m["newton.lu_per_solve"] = (ratio(calls("newton.lu"), solves), "count")
    m["newton.us_per_solve"] = (ratio(seconds("newton.solve"), solves) * 1e6, "us")
    m["newton.self_us_per_solve"] = (ratio(seconds("newton.solve", 2), solves) * 1e6, "us")
    m["newton.damped_iter_ratio"] = (ratio(counts.get("newton.damped_iters", 0), iters),
                                     "ratio")
    m["newton.iter_cap_hits"] = (counts.get("newton.iter_cap", 0), "count")

    m["tableaux.quadrature_per_solve"] = (ratio(calls("tableaux.quadrature"), solves),
                                          "count")
    m["tableaux.quadrature_us"] = (
        ratio(seconds("tableaux.quadrature"), calls("tableaux.quadrature")) * 1e6, "us")

    m["solver.blocks_per_step"] = (ratio(blocks, steps), "count")
    m["solver.block_ms"] = (ratio(sum(seconds(b) for b in BLOCKS), blocks) * 1e3, "ms")
    m["solver.self_us_per_solve"] = (
        ratio(sum(seconds(b, 2) for b in BLOCKS), solves) * 1e6, "us")
    m["solver.sweeps_per_step"] = (ratio(calls("solver.correction_block"), steps), "count")

    m.update(_pipeline(wl, tracer, log, counts, untraced_reps, seconds))
    m.update(_harness(seconds, calls))
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def _pipeline(wl, tracer, log, counts, untraced_reps, seconds) -> dict:
    m = {}
    running = wl.name == "pipeline"
    call_wall = seconds("call.integrate_parallel")
    for p in range(PIPELINE_WORKERS):
        worker = tracer.totals(thread_prefix=f"pair{p}") if running else {}
        busy = sum(worker.get(b, (0, 0.0))[1] for b in BLOCKS)
        cpu = sum(worker.get(b, (0, 0.0, 0.0, 0.0))[3] for b in BLOCKS)
        m[f"pipeline.busy_s.w{p}"] = (busy, "s")
        m[f"pipeline.cpu_s.w{p}"] = (cpu, "s")
        m[f"pipeline.wait_s.w{p}"] = (call_wall - busy if running else 0.0, "s")
    if not running:
        for name, unit in (("msgs_per_step", "count"), ("bytes_per_step", "B-computed"),
                           ("serial_steps_per_s", "steps/s"), ("speedup", "ratio"),
                           ("bound", "ratio"), ("predicted_cycles", "count")):
            m[f"pipeline.{name}"] = (0.0, unit)
        return m
    n = wl.N
    serial = statistics.median(rec.wall for rep in untraced_reps for rec in rep.records
                               if rec.kind == "integrate")
    parallel = statistics.median(rec.wall for rep in untraced_reps for rec in rep.records
                                 if rec.kind == "integrate_parallel")
    m["pipeline.msgs_per_step"] = (sum(len(v) for v in log.values()) / n, "count")
    m["pipeline.bytes_per_step"] = (counts.get("pipeline.payload_bytes", 0) / n,
                                    "B-computed")
    m["pipeline.serial_steps_per_s"] = (n / serial, "steps/s")
    m["pipeline.speedup"] = (serial / parallel, "ratio")
    m["pipeline.bound"] = (hbpc.harness.theoretical_speedup("Alg1", wl.cfg.kmax, n),
                           "ratio")
    m["pipeline.predicted_cycles"] = (
        hbpc.pipeline.simulate_schedule("Alg1", wl.cfg.kmax, n), "count")
    return m


def _harness(seconds, calls) -> dict:
    def mean_ms(name):
        c = calls(name)
        return seconds(name) / c * 1e3 if c else 0.0

    study = seconds("call.run_convergence_study")
    return {
        "harness.overhead_ms": ((study - seconds("harness.solve")) * 1e3 if study else 0.0,
                                "ms"),
        "harness.resolve_reference_ms": (mean_ms("harness.resolve_reference"), "ms"),
        "harness.estimate_order_ms": (mean_ms("harness.estimate_order"), "ms"),
        "harness.render_csv_ms": (mean_ms("harness.render_csv"), "ms"),
    }
