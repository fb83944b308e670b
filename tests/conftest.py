import concurrent.futures

import pytest


@pytest.fixture
def pool_starts(monkeypatch):
    """The max_workers of every process pool started during the test, in
    order; a pool class set later in the test may subclass the counted
    one."""
    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(**kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return started
