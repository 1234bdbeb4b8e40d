"""The benchmark's tracer patches hbpc module attributes by name.

``perfbench/tracing.py`` swaps, among others, ``hbpc.pipeline``'s
``predictor_block``, ``correction_block``, ``eval_bundle`` and ``BlockResult``
with ``setattr`` and reads them back with ``getattr``; renaming one of them
makes ``perfbench/run.py --trace 1`` die with ``AttributeError``. Entering
and leaving ``Instrumented`` once fails here first.
"""

import importlib.util
import os
from types import SimpleNamespace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(REPO_ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_patched_name():
    tracing = _load_tracing()
    with tracing.Instrumented(tracing.Tracer(), SimpleNamespace()):
        pass


def test_tracer_counts_every_layer_of_a_per_block_run():
    # A traced problem's callbacks carry no stacked forms, so every block runs
    # through predictor_block or correction_block; each of their stage solves
    # calls newton.solve once, and each Jacobi correction block the quadrature
    # once, for all its stage rows.
    import hbpc.solver
    from hbpc.problems import make

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    workload = SimpleNamespace(p=make("pareschi_russo"))
    cfg = hbpc.solver.SolverConfig(variant="Alg1", q=6, kmax=3, n_steps=4)
    with tracing.Instrumented(tracer, workload):
        assert not hasattr(workload.p.phi_e, "stack")
        hbpc.solver.integrate(workload.p, cfg)
    counts = tracer.counts()
    calls = {name: counts.get("calls." + name, 0)
             for name in ("solver.predictor_block", "solver.correction_block",
                          "tableaux.quadrature", "newton.solve")}
    assert all(calls.values()), calls
    stages = cfg.q // 2 - 1
    assert calls["tableaux.quadrature"] == calls["solver.correction_block"]
    assert calls["newton.solve"] == stages * (calls["solver.predictor_block"]
                                              + calls["solver.correction_block"])
