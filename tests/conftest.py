"""Every test fails once it has run ``TIME_LIMIT_S`` seconds of wall time,
so that a loop that never ends (a local-search descent with a mispriced
swap delta, say) fails the run instead of hanging it.  No timeout plugin
is needed: the limit is a ``SIGALRM`` timer."""

import signal

import pytest

# The slowest test takes about 10 s on a 2-vCPU VM.
TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit(request):
    def expire(signum, frame):
        # ``pytest.fail`` raises no ``Exception``, so no handler in the code
        # under test can swallow it.
        pytest.fail(f"{request.node.nodeid} ran over {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
