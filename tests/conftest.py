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


_GC_THRESHOLD = gc.get_threshold()


@pytest.fixture(autouse=True)
def collector_settings_kept():
    """Fail any test after which the collector's thresholds differ from
    their values when the test run started, or objects are left frozen:
    the tree layers pause the collector for a call (`terms.gc_paused`)
    and move what survived it to the oldest generation, but change no
    threshold and leave nothing frozen.  Both are put back here so one
    failure does not leak into the tests after it."""
    yield
    threshold, frozen = gc.get_threshold(), gc.get_freeze_count()
    if threshold != _GC_THRESHOLD or frozen:
        gc.set_threshold(*_GC_THRESHOLD)
        gc.unfreeze()
        pytest.fail(
            f"the collector was left with thresholds {threshold} and "
            f"{frozen} frozen objects"
        )
