"""Shared test infrastructure: acceptance-criterion result reporting and a
tape probe for single-op references."""

from dife import tensor as T
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
    """(op(x), d sum(op(x) * g) / dx, tape nodes op recorded) for a tracked x."""
    with Tape() as tape:
        xt = T.scale(Tensor(x, requires_grad=True), 1.0)
        before = len(tape.nodes)
        y = op(xt)
        nodes = len(tape.nodes) - before
        tape.backward(T.sum_all(T.mul(y, Tensor(g))))
        return y.data, tape.grad(xt), nodes
