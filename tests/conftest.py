"""Suite-wide set-up.

Run with EOA_THREADS above 1, every count takes the threaded path: the
serial floor `oa._PARALLEL_KEYS` (2^22 keys) is lowered to 0, since no
array in the suite comes near it.  Tests that set the floor or the
worker count themselves override this.
"""

import os

import pytest

from eoa import config, oa


@pytest.fixture(autouse=True)
def threaded_counting(monkeypatch):
    if "EOA_THREADS" in os.environ and config.worker_count() > 1:
        monkeypatch.setattr(oa, "_PARALLEL_KEYS", 0)
