"""Outside-in tracing of hbpc: spans and counts recorded by wrapping the
public functions of each module from the benchmark's own files.

Nothing in ``src/`` is changed. ``Instrumented`` swaps module attributes for
wrappers that record a span (name, start, end, parent span, thread) and
counts at the same boundary, and puts the originals back on exit. Every
wrapper passes arguments and results through untouched, so a traced solve
performs bit-identical floating-point work; ``run.py`` checks that.

Each thread appends to its own buffers, so the pipeline's worker threads
never interleave records. Spans stay in memory until ``save``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from array import array

import numpy as np

import hbpc.core
import hbpc.harness
import hbpc.newton
import hbpc.pipeline
import hbpc.solver

CALLBACKS = ("phi_e", "phi_i", "jac_e", "jac_i", "dphi_i_jac")


class _ThreadBuffer:
    def __init__(self, thread: str):
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")  # thread CPU seconds, recorded for block spans only
        self.stack = []
        self.counts = {}


class Tracer:
    """In-memory span and count recorder shared by all wrappers of one run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers = []

    def _buf(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def _nid(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def count(self, key: str, n: int = 1):
        counts = self._buf().counts
        counts[key] = counts.get(key, 0) + n

    def wrap(self, name: str, fn, cpu: bool = False, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self._nid(name)

        def wrapped(*args, **kwargs):
            b = self._buf()
            idx = len(b.start)
            b.name.append(nid)
            b.parent.append(b.stack[-1] if b.stack else -1)
            b.start.append(0.0)
            b.end.append(0.0)
            b.cpu.append(0.0)
            b.stack.append(idx)
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if cpu:
                    b.cpu[idx] = time.thread_time() - c0
                b.stack.pop()
                b.start[idx] = t0
                b.end[idx] = t1
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapped

    # -- aggregation ------------------------------------------------------

    def counts(self) -> dict:
        """Span counts per name plus every explicit count, summed over threads."""
        total = {}
        for b in self.buffers:
            for nid in b.name:
                key = "calls." + self.names[nid]
                total[key] = total.get(key, 0) + 1
            for key, n in b.counts.items():
                total[key] = total.get(key, 0) + n
        return dict(sorted(total.items()))

    def spans(self):
        """Per-thread numpy views: (thread, name ids, start, end, self, cpu)."""
        out = []
        for b in self.buffers:
            start = np.frombuffer(b.start, dtype=float)
            end = np.frombuffer(b.end, dtype=float)
            parent = np.frombuffer(b.parent, dtype=np.int32)
            dur = end - start
            child = np.zeros_like(dur)
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            out.append((b.thread, np.frombuffer(b.name, dtype=np.int32),
                        start, end, dur - child,
                        np.frombuffer(b.cpu, dtype=float)))
        return out

    def totals(self, thread_prefix: str | None = None) -> dict:
        """name -> (calls, total seconds, self seconds, cpu seconds)."""
        acc = {}
        for thread, names, start, end, self_s, cpu in self.spans():
            if thread_prefix is not None and not thread.startswith(thread_prefix):
                continue
            dur = end - start
            for nid, name in enumerate(self.names):
                sel = names == nid
                if sel.any():
                    c, d, s, u = acc.get(name, (0, 0.0, 0.0, 0.0))
                    acc[name] = (c + int(sel.sum()), d + float(dur[sel].sum()),
                                 s + float(self_s[sel].sum()),
                                 u + float(cpu[sel].sum()))
        return acc

    def save(self, path: str):
        """Write every span (name, start, end, parent, thread) to ``path``."""
        def cat(field, dtype):
            return np.concatenate([np.frombuffer(getattr(b, field), dtype)
                                   for b in self.buffers])
        np.savez(path, names=np.array(self.names),
                 threads=np.array([b.thread for b in self.buffers]),
                 thread=np.concatenate([np.full(len(b.start), i, dtype=np.int16)
                                        for i, b in enumerate(self.buffers)]),
                 name=cat("name", np.int32), parent=cat("parent", np.int32),
                 start=cat("start", float), end=cat("end", float))


class _CountingNumpy:
    """Stands in for ``numpy`` inside ``hbpc.core`` to count ``isfinite``."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(np, name)

    def isfinite(self, *args, **kwargs):
        self._tracer.count("core.isfinite")
        return np.isfinite(*args, **kwargs)


def _newton_counts(tracer: Tracer):
    def on_result(res, F, J, w0, cfg=hbpc.newton.NewtonConfig()):
        tracer.count("newton.iters", res.iters)
        # the damping used by iteration i is the one recorded after i - 1
        used = [cfg.damping_init] + list(res.damping_history[:-1])
        tracer.count("newton.damped_iters",
                     sum(t < cfg.damping_init for t in used[:res.iters]))
        tracer.count("newton.iter_cap", res.converged_by == "iter_cap")
    return on_result


def _payload_bytes(tracer: Tracer, block_result):
    def make(*args, **kwargs):
        msg = block_result(*args, **kwargs)
        bundles = [msg.f_last] + list(msg.stages_f or [])
        arrays = [msg.w_last] + list(msg.stages_w or [])
        arrays += [a for f in bundles
                   for a in (f.phi_e, f.phi_i, f.dphi_e, f.dphi_i)]
        tracer.count("pipeline.payload_bytes", sum(a.nbytes for a in arrays))
        return msg
    return make


def traced_problem(tracer: Tracer, p):
    """Copy of ``p`` whose callbacks record ``problems.<callback>`` spans."""
    return dataclasses.replace(p, **{
        cb: tracer.wrap("problems." + cb, getattr(p, cb))
        for cb in CALLBACKS if getattr(p, cb) is not None})


class Instrumented:
    """Context manager that installs the wrappers for one traced pass.

    ``workload.p`` (when set) is swapped for a traced copy; problems built by
    the harness are traced through ``hbpc.harness.make``.
    """

    def __init__(self, tracer: Tracer, workload):
        t = tracer
        blocks = {name: t.wrap("solver." + name, getattr(hbpc.solver, name), cpu=True)
                  for name in ("predictor_block", "correction_block")}
        bundle = t.wrap("core.eval_bundle", hbpc.core.eval_bundle)
        make = hbpc.harness.make
        self._patches = [
            (hbpc.core, "np", _CountingNumpy(t)),
            (hbpc.solver, "eval_bundle", bundle),
            (hbpc.pipeline, "eval_bundle", bundle),
            (hbpc.newton, "solve", t.wrap("newton.solve", hbpc.newton.solve,
                                          on_result=_newton_counts(t))),
            (hbpc.newton, "_lu_solve_checked",
             t.wrap("newton.lu", hbpc.newton._lu_solve_checked)),
            (hbpc.solver, "quadrature",
             t.wrap("tableaux.quadrature", hbpc.solver.quadrature)),
            (hbpc.solver, "predictor_block", blocks["predictor_block"]),
            (hbpc.solver, "correction_block", blocks["correction_block"]),
            (hbpc.pipeline, "predictor_block", blocks["predictor_block"]),
            (hbpc.pipeline, "correction_block", blocks["correction_block"]),
            (hbpc.pipeline, "BlockResult", _payload_bytes(t, hbpc.pipeline.BlockResult)),
            (hbpc.harness, "make", lambda *a, **k: traced_problem(t, make(*a, **k))),
            (hbpc.harness, "integrate", t.wrap("harness.solve", hbpc.harness.integrate)),
            (hbpc.harness, "resolve_reference",
             t.wrap("harness.resolve_reference", hbpc.harness.resolve_reference)),
            (hbpc.harness, "estimate_order",
             t.wrap("harness.estimate_order", hbpc.harness.estimate_order)),
            (hbpc.harness, "render_csv",
             t.wrap("harness.render_csv", hbpc.harness.render_csv)),
            (hbpc.solver, "integrate", t.wrap("call.integrate", hbpc.solver.integrate)),
            (hbpc.solver, "limit_integrate",
             t.wrap("call.limit_integrate", hbpc.solver.limit_integrate)),
            (hbpc.pipeline, "integrate_parallel",
             t.wrap("call.integrate_parallel", hbpc.pipeline.integrate_parallel)),
            (hbpc.harness, "run_convergence_study",
             t.wrap("call.run_convergence_study", hbpc.harness.run_convergence_study)),
        ]
        if getattr(workload, "p", None) is not None:
            self._patches.append((workload, "p", traced_problem(t, workload.p)))
        self._saved = []

    def __enter__(self):
        for obj, attr, new in self._patches:
            self._saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)
        return self

    def __exit__(self, *exc):
        for obj, attr, old in reversed(self._saved):
            setattr(obj, attr, old)
        self._saved.clear()
        return False
