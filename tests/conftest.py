import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail any test after which the cyclic collector is off.

    The tree layers pause the collector for their call (`terms.gc_paused`)
    and must turn it back on on every path, an error path included.  The
    collector is turned back on here so one failure does not leak into
    the tests after it.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the cyclic collector was left disabled")


_RECURSION_LIMIT = sys.getrecursionlimit()


@pytest.fixture(autouse=True)
def recursion_limit_kept():
    """Fail any test after which the recursion limit differs from its
    value when the test run started: deep inputs must be handled without
    raising `sys.setrecursionlimit`.  The limit is restored here so one failure
    does not leak into the tests after it."""
    yield
    limit = sys.getrecursionlimit()
    if limit != _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
        pytest.fail(f"the recursion limit was changed to {limit}")
