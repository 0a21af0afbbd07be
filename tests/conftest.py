"""Shared test infrastructure: acceptance-criterion result reporting, a
tape probe for single-op references, a spy on the twin branch's threads
and fresh executors for a test that sets the core count."""

import threading

import pytest

from dife import tensor as T
from dife import train as TR
from dife.tensor import Tape, Tensor

ACCEPTANCE_LINES = []


def record_criterion(number, description, passed):
    """Log one acceptance line; shown in the terminal summary."""
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append((number, f"{status}  criterion {number}: {description}"))
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def tape_forward_backward(op, x, g):
    """(op(x), d sum(op(x) * g) / dx, tape nodes op recorded) for a tracked x.

    A tuple x is several tracked inputs, and gives a tuple of gradients; an op
    that returns a tuple of tensors weights each by its entry of a tuple g.
    """
    xs = x if isinstance(x, tuple) else (x,)
    with Tape() as tape:
        ts = [T.scale(Tensor(a, requires_grad=True), 1.0) for a in xs]
        before = len(tape.nodes)
        y = op(*ts)
        nodes = len(tape.nodes) - before
        ys, gs = (y, g) if isinstance(y, tuple) else ((y,), (g,))
        root = T.sum_all(T.mul(ys[0], Tensor(gs[0])))
        for yi, gi in zip(ys[1:], gs[1:]):
            root = T.add(root, T.sum_all(T.mul(yi, Tensor(gi))))
        tape.backward(root)
        grads = tuple(tape.grad(t) for t in ts)
    data = tuple(yi.data for yi in ys)
    return (data if isinstance(y, tuple) else data[0],
            grads if isinstance(x, tuple) else grads[0], nodes)


@pytest.fixture()
def twin_threads(monkeypatch):
    """Idents of the threads that ran train_step's twin branch: evaluate's
    pieces run on the same pool, so a thread's name does not tell them apart."""
    idents = set()
    twin_branch = TR._twin_branch

    def spy(*args):
        idents.add(threading.get_ident())
        return twin_branch(*args)

    monkeypatch.setattr(TR, "_twin_branch", spy)
    return idents


@pytest.fixture()
def fresh_executors(monkeypatch):
    """The library's executors by thread name prefix, none built yet: a pool
    built in the test takes the core_count() it sets.  Each is shut down
    after the test, so its threads end with it."""
    executors = {}
    monkeypatch.setattr(T, "_EXECUTORS", executors)
    yield executors
    for executor in executors.values():
        executor.shutdown()
