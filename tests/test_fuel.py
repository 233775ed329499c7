"""Where a run stops when its fuel runs out.

Every node spends its fuel at the step a tree walk would, but the
balance is checked only where going on could be seen: before a trace
event, at a call, at each loop iteration, before the on_item hook and
before the final return.  A run whose balance is negative ends with
`("trap", "fuel")`, whatever stopped it, so each case here gives what a
tree walk that checks at every node gives.
"""

import signal
from contextlib import contextmanager

import pytest

from srctrans.difftest import PASSES, diff_one
from srctrans.langs.base import get_language

FUEL_TRAP = (("trap", "fuel"),)


class Hung(BaseException):
    """Raised by the alarm; not an Exception, so a run cannot report it
    as a trap."""


@contextmanager
def deadline(seconds: int):
    def alarm(signum, frame):
        raise Hung(f"the run did not stop within {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _events(lname: str, text: str, fuel: int) -> tuple:
    lang = get_language(lname)
    return lang.run(lang.parse(text), fuel=fuel).events


def test_event_checks_the_fuel():
    text = "int main() { print(1, 2, 3); return 0; }"
    # the statement, the call and its three arguments cost 5
    assert _events("minic", text, 4) == FUEL_TRAP
    assert _events("minic", text, 5) == (("print", "1 2 3"), ("trap", "fuel"))


def test_trap_after_the_fuel_ran_out_is_the_fuel_trap():
    text = "int main() { int x = 1 + true; return x; }"
    # fuel 3 runs out at `true`, before the type check of `+`
    assert _events("minic", text, 3) == FUEL_TRAP
    assert _events("minic", text, 4) == (("trap", "type"),)


def _deep_print(depth: int) -> str:
    e = "1"
    for _ in range(depth):
        e = f"1 + ({e})"
    return "int main() { if (true) { print(%s); } return 0; }" % e


def test_error_after_the_fuel_ran_out_is_the_fuel_trap():
    """Compiling the block's deep expression exhausts the Python stack.
    At fuel 1 the block compiles only after the fuel has run out, so the
    run still gives the fuel trap; with fuel left the error propagates."""
    lang = get_language("minic")
    text = _deep_print(1500)
    ast = lang.parse(text)
    assert lang.run(ast, fuel=1).events == FUEL_TRAP
    for fuel in (2, 100_000):
        with pytest.raises(RecursionError):
            lang.run(ast, fuel=fuel)
    verdict = diff_one(lang, PASSES["ident"], 0, text)
    assert verdict.kind == "RunError"
    assert verdict.detail.startswith("before: RecursionError")


def test_call_checks_the_fuel():
    text = "function f(n) { return f(n + 1); } function main() { return f(0); }"
    assert _events("minijs", text, 50) == FUEL_TRAP
    assert _events("minijs", text, 100_000) == (("trap", "stack"),)


@pytest.mark.parametrize("lname, text, fuel", [
    ("minic", "int main() { int x = 0; while (true) x = x + 1; return x; }", 50),
    ("minic", "int main() { int x = 0; for (;;) x = x + 1; return x; }", 50),
    ("minijs", "function main() { var x = 0; while (true) { x = x + 1; } }", 50),
    ("minilua", "local n = 0 while true do n = n + 1 end", 40),
    ("minilua", "local n = 0 for i = 1, 1000000000 do n = n + i end", 40),
])
def test_loop_iteration_checks_the_fuel(lname, text, fuel):
    with deadline(10):
        assert _events(lname, text, fuel) == FUEL_TRAP
