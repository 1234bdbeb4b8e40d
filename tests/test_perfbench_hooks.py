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
