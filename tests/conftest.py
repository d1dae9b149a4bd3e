import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, say a scoring worker
    its evaluator never ended."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # 0: a child still runs
    except ChildProcessError:
        return
    pytest.fail(f"a child process is left behind: waitpid(-1, WNOHANG) gave pid {pid}")
