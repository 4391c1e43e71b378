"""A watchdog on every test, so that a hang fails the suite instead of stalling it.

A fault in the sampler's fill-ahead handover can leave a thread waiting
for ever. Each test runs under ``faulthandler.dump_traceback_later``:
after 60 s it writes the stack of every thread to the terminal and ends
the run with exit status 1. The slowest test takes under 3 s. While a
test runs, pytest points fd 2 at a capture file that an exit would
discard, and it does so already while it imports this module, so the
dump goes to a copy of fd 2 taken at configure time, when the capture is
suspended.
"""

import faulthandler
import os

import pytest

_TERMINAL = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_TERMINAL] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_TERMINAL])


@pytest.fixture(autouse=True)
def _hang_guard(request):
    faulthandler.dump_traceback_later(60, exit=True, file=request.config.stash[_TERMINAL])
    yield
    faulthandler.cancel_dump_traceback_later()
