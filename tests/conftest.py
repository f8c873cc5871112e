"""Checks shared by every test module."""

import multiprocessing
import os

import pytest


@pytest.fixture(autouse=True)
def no_process_left_behind():
    """Fail a test that leaves a child process behind: one still running or
    not yet reaped, such as the helper of a split solve, or a live worker
    of a multiprocessing pool."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        left = None
    alive = multiprocessing.active_children()
    if left is not None or alive:
        pytest.fail(f"the test left a child process behind: waitpid {left}, live workers {alive}")
