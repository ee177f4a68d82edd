import os

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process is running or unreaped: every
    worker a fit forks must be reaped before the fit returns or raises."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left {'unreaped' if pid else 'running'}")
