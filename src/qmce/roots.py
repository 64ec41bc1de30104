"""The one root finder behind every monotone solve in qmce.

U(beta) = E, beta(E) = 1/T and beta_1 = beta_2 all ask for the root of a
nonincreasing function: U is strictly decreasing in beta, and beta(E) =
Omega'/Omega is nonincreasing because Omega is log-concave (Prekopa,
Acta Sci. Math. 34, 1973).
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, NoSolutionError

_RTOL = 1e-13  # step or bracket size, relative to max(|x|, scale), that ends the solve
_MAX_STEPS = 100


def decreasing_root(f, a: float, b: float, scale: float, start=None, far_error: str | None = None) -> float:
    """Root of a nonincreasing f on [a, b] by safeguarded Newton.

    f(x) returns (value, slope) with f(a) > 0 >= f(b).  A Newton step is
    taken whenever it lands strictly inside the bracket; otherwise (or
    where the slope is not negative) the bracket is bisected.  The solve
    ends when a Newton step or the bracket is at most 1e-13*max(|x|,
    scale), with x measured from the caller's natural origin.

    start is (x, value, slope) for an already evaluated first point;
    without it the solve starts at the midpoint.  far_error marks f(b)
    as unknown: b is evaluated only when a step first leaves the
    bracket, and ConvergenceError(far_error) is raised if f(b) > 0.

    f is infinite where it cannot be evaluated (beta where Omega is
    rounding noise).  A bracket that closes on such a point holds a pole,
    not a root, and raises NoSolutionError, as does a NaN value.
    """
    x = 0.5 * (a + b)
    x, value, slope = start if start is not None else (x, *f(x))
    b_seen = far_error is None
    va = vb = 0.0  # f at the bracket ends, once evaluated
    for _ in range(_MAX_STEPS):
        if value > 0.0:
            if x == b and not b_seen:
                raise ConvergenceError(far_error)
            a, va = x, value
        elif value < 0.0:
            b, vb, b_seen = x, value, True
        elif value == 0.0:
            return x
        else:
            raise NoSolutionError(f"no root: f is not a number at x = {x:.17g}")
        newton = x - value / slope if slope < 0.0 else math.inf
        if a <= newton <= b and abs(newton - x) <= _RTOL * max(abs(newton), scale):
            return newton
        if a < newton < b:
            x = newton
        elif b_seen:
            x = 0.5 * (a + b)
            if b - a <= _RTOL * max(abs(a), abs(b), scale):
                if math.isinf(va) or math.isinf(vb):
                    raise NoSolutionError(f"no root: f is infinite next to x = {x:.17g}")
                return x
        else:
            x = b
        value, slope = f(x)
    raise ConvergenceError("root finder did not converge")
