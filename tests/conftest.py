import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

os.environ.setdefault("HBPC_REF_CACHE", os.path.join(REPO_ROOT, "refcache"))


def pytest_collection_modifyitems(config, items):
    if os.environ.get("HBPC_RUN_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="long-running; set HBPC_RUN_SLOW=1")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def no_live_child_process():
    """Fail a test that leaves a child process running, and stop it."""
    yield
    import multiprocessing

    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"left {len(left)} child process(es) running: {left}")


@pytest.fixture
def computed_corrections(monkeypatch):
    """A list whose sum counts the correction blocks the solver computes:
    Jacobi ones where their stage systems are built (``_jacobi_blocks``, one
    block or a stacked wavefront), Gauss-Seidel ones in ``correction_block``."""
    import hbpc.solver as solver_mod

    counts = []
    block, jacobi = solver_mod.correction_block, solver_mod._jacobi_blocks

    def count_jacobi(p, tab, dt, blocks, *rest, **kwargs):
        counts.append(sum(blue is not None for _, blue in blocks))
        return jacobi(p, tab, dt, blocks, *rest, **kwargs)

    def count_gauss_seidel(*args):
        counts.append(int(args[6]))  # the gauss_seidel argument
        return block(*args)

    monkeypatch.setattr(solver_mod, "correction_block", count_gauss_seidel)
    monkeypatch.setattr(solver_mod, "_jacobi_blocks", count_jacobi)
    return counts
