"""Fixtures shared by every test module."""

import pytest

from wondercoh import cohomology


@pytest.fixture(autouse=True)
def empty_last_table():
    # the tests share build_case's varieties and patch engine internals, so
    # no test may be handed a table that an earlier one evaluated
    cohomology.clear_last_table()
