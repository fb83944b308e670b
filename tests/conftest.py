import concurrent.futures

import pytest


@pytest.fixture
def fan_outs(monkeypatch):
    """Every fan-out over several workers during the test, in order:
    ("threads", n) for a job list run on n threads, ("pool", n) for a
    process pool of n workers; a pool class set later in the test may
    subclass the counted one. A job list run serially adds nothing."""
    from plrank import em

    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            started.append(("pool", kwargs["max_workers"]))
            super().__init__(**kwargs)

    thread_map = em._thread_map

    def counted(fn, data, jobs, workers):
        started.append(("threads", workers))
        return thread_map(fn, data, jobs, workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(em, "_thread_map", counted)
    return started
