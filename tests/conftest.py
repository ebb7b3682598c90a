import json
import os

import pytest
from hypothesis import settings

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="session")
def oracles():
    """Pre-registered golden values produced by scripts/prerun_oracles.py."""
    with open(os.path.join(GOLDEN_DIR, "oracles.json")) as fh:
        return json.load(fh)


# Property tests draw the same examples on every run and have no per-example
# time limit, so a slow moment on a shared machine is not a failure.
settings.register_profile("selfnorm", derandomize=True, deadline=None)
settings.load_profile("selfnorm")
