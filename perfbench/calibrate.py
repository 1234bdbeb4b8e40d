"""Machine-speed factor, to take host drift out of the benchmark's timings.

On a shared VM the same solve runs up to 2x faster or slower from one
minute to the next, and CPU time tracks wall time, so the drift is the
host's and not the program's. ``speed()`` times a fixed kernel of the same
kind of work as a stage solve (small numpy arrays, a 4x4 linear solve,
Python glue) and returns its rate relative to ``REFERENCE_RATE``; for a
workload that runs two worker threads it times two threads handing work to
each other instead, since their rate also depends on the second core. A
run measures it before its first repetition and after each one, and
divides the median solve rate by the median speed. The kernel does not
touch hbpc, so a change to hbpc moves the scaled rate exactly as it moves
the raw one; the raw rates are kept in the machine notes. Set-up time is
not scaled: it is dominated by process start and imports, which do not
follow the kernel.

Changing a kernel or a reference rate rescales every recorded figure.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np

# Rates that define speed 1.0: kernel units per second on one thread, and
# steps per second of the two-thread pipeline of smaller units.
REFERENCE_RATE = 350.0
PAIR_REFERENCE_RATE = 390.0
PAIR_STEPS = 20


def _unit(iterations: int = 100) -> np.ndarray:
    w = np.array([0.5, 0.1, 0.2, -0.3])
    eye = np.eye(4)
    for _ in range(iterations):
        f = np.array([w[1], -np.sin(w[0]), w[3], -w[2] ** 3])
        jac = np.array([[0.0, 1.0, 0.0, 0.0], [-np.cos(w[0]), 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -3.0 * w[2] ** 2, 0.0]])
        w = w + np.linalg.solve(eye - 0.01 * jac, 0.01 * f)
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("calibration kernel diverged")
    return w


def _pair_steps(steps: int):
    """Two threads in the pattern of the paired pipeline: the lower one sends
    up and waits for the upper one's previous step, as workers 0 and 1 do."""
    up, down = queue.Queue(8), queue.Queue(8)

    def lower():
        for n in range(steps):
            _unit(20)
            up.put(n)
            if n >= 1:
                down.get()
            _unit(20)

    def upper():
        for n in range(steps):
            up.get()
            _unit(20)
            down.put(n)
            _unit(20)

    threads = [threading.Thread(target=lower), threading.Thread(target=upper)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def speed(seconds: float = 0.2, threads: int = 1) -> float:
    """Kernel rate over ``seconds`` of repetitions, relative to its reference.

    ``threads=2`` times the two-thread pipeline instead, which also feels
    the second core and the hand-off between threads."""
    if threads not in (1, 2):
        raise ValueError("the calibration runs on one or two threads")
    t0 = time.perf_counter()
    n = 0
    while True:
        if threads == 1:
            _unit()
            n += 1
        else:
            _pair_steps(PAIR_STEPS)
            n += PAIR_STEPS
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed / (REFERENCE_RATE if threads == 1 else PAIR_REFERENCE_RATE)
