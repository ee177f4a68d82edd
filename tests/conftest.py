import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process is still running: every pool
    a fit starts must be shut down before the fit returns or raises."""
    yield
    left = multiprocessing.active_children()
    if left:
        pytest.fail(f"child processes left running: {left}")
