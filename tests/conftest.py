"""Fixtures every test module uses."""

import pytest

from gaudual import runner


@pytest.fixture(autouse=True)
def empty_shared_store():
    """Each test starts with runner's stores of z sides empty, so no test
    reads a side that another test built (see runner.run_job)."""
    runner._shared.clear()
