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


@pytest.fixture
def computed_corrections(monkeypatch):
    """A list whose sum counts the correction blocks the solver computes,
    whether one by one (``correction_block``) or stacked (``_stacked_blocks``)."""
    import hbpc.solver as solver_mod

    counts = []
    block, stacked = solver_mod.correction_block, solver_mod._stacked_blocks

    def count_stacked(p, tab, dt, blocks, *rest):
        counts.append(sum(blue is not None for _, blue in blocks))
        return stacked(p, tab, dt, blocks, *rest)

    monkeypatch.setattr(solver_mod, "correction_block",
                        lambda *args: counts.append(1) or block(*args))
    monkeypatch.setattr(solver_mod, "_stacked_blocks", count_stacked)
    return counts
