import math

import pytest

from qmce.errors import ConvergenceError, NoSolutionError
from qmce.roots import decreasing_root


def recording(f):
    """f with a log of the points it was evaluated at."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


def test_linear_is_exact_after_one_step():
    f, seen = recording(lambda x: (2.0 * (3.0 - x), -2.0))
    assert decreasing_root(f, 0.0, 8.0, 8.0) == 3.0
    assert seen == [4.0, 3.0]  # the midpoint start, then one Newton step


def test_jump_through_zero():
    k = 1.3

    def f(x):
        return (k - x + (0.5 if x < k else -0.5), -1.0)

    root = decreasing_root(f, 0.0, 4.0, 4.0)
    assert abs(root - k) <= 1e-13 * 4.0


def test_unverified_far_end_above_zero_raises():
    f, seen = recording(lambda x: (5.0 - x, -1.0))
    with pytest.raises(ConvergenceError, match="no root below 2"):
        decreasing_root(f, 0.0, 2.0, 2.0, start=(0.0, 5.0, -1.0), far_error="no root below 2")
    assert seen == [2.0]  # the overshooting Newton step probes b


def test_unverified_far_end_is_read_only_when_needed():
    f, seen = recording(lambda x: (1.0 - x, -1.0))
    assert decreasing_root(f, 0.0, 2.0, 2.0, start=(0.0, 1.0, -1.0), far_error="unused") == 1.0
    assert seen == [1.0]


def test_known_far_end_is_never_evaluated():
    # Newton from 0.5 overshoots b = 1; the known bracket is bisected instead
    f, seen = recording(lambda x: (0.75 - x, -1e-3) if x < 1.0 else (float("nan"), 0.0))
    root = decreasing_root(f, 0.0, 1.0, 1.0)
    assert abs(root - 0.75) <= 1e-13
    assert all(x < 1.0 for x in seen)


def test_zero_slope_bisects():
    k = 0.3
    f, seen = recording(lambda x: (1.0 if x < k else -1.0, 0.0))
    root = decreasing_root(f, 0.0, 1.0, 1.0)
    assert abs(root - k) <= 1e-13
    assert seen[:4] == [0.5, 0.25, 0.375, 0.3125]


def test_bracket_closing_on_a_pole_raises():
    # f cannot be evaluated below 0.3 (+inf there) and is negative above:
    # the bracket closes on 0.3, which is a pole, not a root
    def f(x):
        return (math.inf, 0.0) if x < 0.3 else (-1.0 - x, -1.0)

    with pytest.raises(NoSolutionError, match="infinite"):
        decreasing_root(f, 0.0, 1.0, 1.0)
