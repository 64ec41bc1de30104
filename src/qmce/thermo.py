"""Microcanonical thermodynamics derived from the density of states.

Natural units throughout: temperatures are k_B*T in energy units,
entropy and specific heat in units of k_B.  A single recorded scale
(ThermoCurve.kB) converts for display; the stored arrays always use
k_B = 1.

Omega is log-concave (Prekopa, Acta Sci. Math. 34, 1973), so beta =
Omega'/Omega is nonincreasing in E and C >= 0.  Both solves here are
therefore the root of a nonincreasing function, found by the one
safeguarded-Newton routine ``roots.decreasing_root`` that also solves the
canonical U(beta) = E: beta(E) = 1/T for ``energy_of_temperature`` and
beta_1 = beta_2 for ``equilibrate``.  Omega is evaluated as a sum of
nonnegative terms, so it is positive wherever it does not underflow and
beta needs no noise floor.

Smoothness at a knot is an exact property of the spline, not something
measured: at an interior level of multiplicity m in dimension N the
derivatives of Omega through order N-2-m are continuous and order N-1-m
is the first that jumps (de Boor, J. Approx. Theory 6, 1972).  Critical
points and the side checks of ``temperature``/``specific_heat_at_E``
are read off the multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dos import PiecewiseDos
from .errors import InvalidInputError, NoSolutionError
from .piecewise import PiecewisePolynomial
from .roots import _RTOL, decreasing_root


@dataclass(frozen=True, eq=False)
class ThermoCurve:
    """Tabulated S, T, C on an energy grid strictly inside the support."""

    grid: np.ndarray
    S: np.ndarray
    T: np.ndarray
    C: np.ndarray
    kB: float


@dataclass(frozen=True)
class CriticalPoint:
    """Interior level, where some one-sided derivative of Omega jumps.

    discontinuity_order is N-1-m for a level of multiplicity m in
    dimension N.  temperature is k_B*T at the knot; when the very first derivative
    jumps (discontinuity_order 1) the temperature itself is two-valued
    and the right limit is stored.  jump holds the (left, right) values
    of the first discontinuous order.
    """

    energy: float
    temperature: float
    discontinuity_order: int
    jump: tuple[float, float]


@dataclass(frozen=True)
class EquilibrationResult:
    """Entropy-maximizing exchange between two composite systems.

    epsilon is the total energy moved into system 1 (each of its N1
    constituents gains epsilon/N1); t1, t2 are the post-exchange k_B*T
    values and total_entropy is N1 ln Omega1 + N2 ln Omega2 at the
    optimum.  boundary marks a maximum pinned at the feasibility edge,
    where the temperatures need not match.
    """

    epsilon: float
    t1: float
    t2: float
    total_entropy: float
    boundary: bool


def _beta(poly: PiecewisePolynomial, x: float) -> tuple[float, float]:
    """beta = Omega'/Omega and dbeta/dE at x.

    Omega, a sum of nonnegative terms, is zero only where it underflows or
    vanishes at a support edge; there beta is +inf in the lower half of
    the support and -inf in the upper half, with slope 0.
    """
    w, w1, w2 = (poly.value(x, k) for k in range(3))
    if not w > 0.0:
        lo, hi = poly.support
        return (math.inf if x - lo < hi - x else -math.inf), 0.0
    beta = w1 / w
    return beta, w2 / w - beta * beta


def _onto_knot(poly: PiecewisePolynomial, x: float, tol: float) -> float:
    """x moved onto the nearest breakpoint when that lies within tol."""
    bp = poly.breakpoints
    k = float(bp[np.abs(bp - x).argmin()])
    return k if abs(k - x) <= tol else x


def _sided(d: PiecewiseDos, e: float, order: int, side: str | None) -> float:
    left, right = d.poly.one_sided(e, order)
    if side == "left":
        return left
    if side == "right":
        return right
    m = np.count_nonzero(d.knots == e)  # multiplicity of e (0 away from the levels)
    if m > 0 and order >= d.dim - 1 - m:
        raise InvalidInputError(
            f"derivative of order {order} jumps at E = {e:g}; "
            "request side='left' or side='right'"
        )
    return 0.5 * (left + right)


def _temperature_of(w, w1):
    """k_B*T = Omega/Omega', +inf where Omega' = 0 (scalar or array)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w1 != 0.0, w / np.where(w1 != 0.0, w1, 1.0), math.inf)


def _heat_of(w, w1, w2):
    """C = Omega'^2 / (Omega'^2 - Omega*Omega'') (scalar or array).

    The 0/0 case is 0 (constant Omega: the energy cannot respond to
    temperature); a vanishing denominator alone is +inf, the
    divergent-specific-heat signal.  The inputs are first divided by the
    largest of them, so that no square underflows.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.maximum(np.maximum(np.abs(w), np.abs(w1)), np.abs(w2))
        w, w1, w2 = (v / np.where(top > 0.0, top, 1.0) for v in (w, w1, w2))
        num = w1 * w1
        den = num - w * w2
        heat = np.where(den != 0.0, num / np.where(den != 0.0, den, 1.0), math.inf)
    return np.where((num == 0.0) & (den == 0.0), 0.0, heat)


def _check_side(side) -> None:
    if side not in (None, "left", "right"):
        raise InvalidInputError(f"side must be 'left', 'right' or None, not {side!r}")


def _check_interior(d: PiecewiseDos, e: float) -> None:
    if not d.e_min < e < d.e_max:
        raise InvalidInputError(
            f"energy {e:g} must lie strictly inside ({d.e_min:g}, {d.e_max:g})"
        )


def temperature(d: PiecewiseDos, e, side: str | None = None) -> float:
    """k_B*T = Omega/Omega' at an energy strictly inside the spectrum.

    Returns +inf where Omega' = 0 (the infinite-temperature signal);
    negative values beyond the mode are genuine.  At a knot where
    Omega' jumps, a side ('left' or 'right') must be requested.
    """
    e = float(e)
    _check_side(side)
    _check_interior(d, e)
    return float(_temperature_of(_sided(d, e, 0, side), _sided(d, e, 1, side)))


def specific_heat_at_E(d: PiecewiseDos, e, side: str | None = None) -> float:
    """C = (Omega')^2 / ((Omega')^2 - Omega*Omega'') in units of k_B.

    The two-level 0/0 case is defined as 0 (constant Omega: the energy
    cannot respond to temperature); a vanishing denominator alone is
    the divergent-specific-heat signal +inf.
    """
    e = float(e)
    _check_side(side)
    _check_interior(d, e)
    w, w1, w2 = (_sided(d, e, k, side) for k in range(3))
    return float(_heat_of(w, w1, w2))


def energy_of_temperature(d: PiecewiseDos, t, branch: str = "first-monotone") -> float:
    """Invert T(E) = Omega/Omega' on a monotone branch.

    'first-monotone' is the positive-temperature interval (E_min,
    E_mode) with E_mode the smallest maximizer of Omega; 'negative'
    is (E_mode', E_max) beyond the largest maximizer.  beta(E) - 1/t is
    nonincreasing on the branch, and ``decreasing_root`` finds its root
    in u = E - (branch start) with slope beta'(E).  beta jumps only at a
    level of multiplicity N-2, which is the mode and so a branch end, so
    every temperature in the reported range is attained.  A root where
    Omega underflows (near the support edges of high dimensions) cannot
    be resolved and raises NoSolutionError.
    """
    t = float(t)
    if branch not in ("first-monotone", "negative"):
        raise InvalidInputError(f"unknown branch {branch!r}")
    if not math.isfinite(t):
        raise InvalidInputError("temperature must be finite")
    x_lo, peak = d.poly.argmax(smallest=True)
    x_hi = d.poly.argmax(smallest=False)[0]
    width = d.e_max - d.e_min
    if branch == "first-monotone":
        if not x_lo > d.e_min:
            raise NoSolutionError(
                "Omega never increases; the positive-temperature branch is empty"
            )
        l1 = d.poly.one_sided(x_lo, 1)[0]
        sup = peak / l1 if l1 > 0.0 else math.inf
        if not 0.0 < t <= sup * (1.0 + 1e-12):
            raise NoSolutionError(
                f"kB*T = {t:g} not attainable; the increasing branch covers "
                f"(0, {sup:g}]"
            )
        a, b = d.e_min, x_lo
    else:
        if not x_hi < d.e_max:
            raise NoSolutionError(
                "Omega never decreases; the negative-temperature branch is empty"
            )
        r1 = d.poly.one_sided(x_hi, 1)[1]
        low = peak / r1 if r1 < 0.0 else -math.inf
        if not low * (1.0 + 1e-12) <= t < 0.0:
            raise NoSolutionError(
                f"kB*T = {t:g} not attainable; the negative branch covers "
                f"[{low:g}, 0)"
            )
        a, b = x_hi, d.e_max

    def f(u: float) -> tuple[float, float]:
        beta, slope = _beta(d.poly, a + u)
        return beta - 1.0 / t, slope

    try:
        return float(a + decreasing_root(f, 0.0, b - a, width))
    except NoSolutionError:
        raise NoSolutionError(
            f"kB*T = {t:g} is reached only where Omega underflows"
        ) from None


def thermo_curve(d: PiecewiseDos, n: int = 1000, e_range=None, kb: float = 1.0) -> ThermoCurve:
    """Tabulate S = ln Omega, k_B*T and C on a uniform midpoint grid.

    The grid consists of the n cell midpoints of [lo, hi] (strictly
    inside the support by construction); a point that collides with a
    knot is perturbed by half a grid step so all values are two-sided.
    """
    if n < 2:
        raise InvalidInputError("need at least two grid points")
    if kb <= 0.0:
        raise InvalidInputError("kb must be positive")
    lo, hi = e_range if e_range is not None else (d.e_min, d.e_max)
    if not d.e_min <= lo < hi <= d.e_max:
        raise InvalidInputError("energy range must be ordered and inside the support")
    step = (hi - lo) / n
    grid = lo + (np.arange(n) + 0.5) * step
    span = d.e_max - d.e_min
    for k in d.poly.breakpoints[1:-1]:
        hit = np.abs(grid - k) <= 1e-12 * span
        if np.any(hit):
            shifted = k + 0.5 * step
            grid[hit] = shifted if shifted < hi else k - 0.5 * step
    w, w1, w2 = (d.poly.value(grid, k) for k in range(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = np.log(w)
    return ThermoCurve(
        grid=grid, S=entropy, T=_temperature_of(w, w1), C=_heat_of(w, w1, w2), kB=float(kb)
    )


def critical_points(d: PiecewiseDos) -> list[CriticalPoint]:
    """One CriticalPoint per interior level, in increasing energy.

    A level of multiplicity m in dimension N is reported with
    discontinuity order N-1-m, the first derivative order that jumps
    there; every lower order is continuous.
    """
    levels, mult = np.unique(d.knots, return_counts=True)
    e, orders = levels[1:-1], d.dim - 1 - mult[1:-1]
    l1, r1 = d.poly.one_sided(e, 1)
    t = _temperature_of(d.poly.value(e), np.where(orders == 1, r1, 0.5 * (l1 + r1)))
    jumps = {k: d.poly.one_sided(e, k) for k in set(orders.tolist())}
    return [
        CriticalPoint(float(x), float(tx), int(k), (float(jumps[k][0][i]), float(jumps[k][1][i])))
        for i, (x, tx, k) in enumerate(zip(e, t, orders))
    ]


def equilibrate(
    d1: PiecewiseDos, e1: float, n1: int, d2: PiecewiseDos, e2: float, n2: int
) -> EquilibrationResult:
    """Maximize N1 ln Omega1(E1 + eps/N1) + N2 ln Omega2(E2 - eps/N2).

    The stationarity condition beta1 - beta2 = 0 is nonincreasing in
    eps, so ``decreasing_root`` solves it from the bracket midpoint with
    slope beta1'/N1 + beta2'/N2.  At an interior smooth optimum the
    returned temperatures agree.  An optimum pinned at a knot where beta
    jumps is returned within the solver tolerance of the knot, and its
    temperatures are the one-sided (right) values at the knot, whichever
    side the solve ended on.  At a feasibility edge one system sits on its
    support edge: beta is infinite there unless Omega is not zero (dim 2, or
    an edge level of multiplicity N - 1), and a gap without a sign change
    between the edges puts the maximum at one, with the boundary flag.
    """
    if int(n1) != n1 or int(n2) != n2 or n1 < 1 or n2 < 1:
        raise InvalidInputError("constituent counts must be positive integers")
    n1, n2 = int(n1), int(n2)
    e1, e2 = float(e1), float(e2)
    _check_interior(d1, e1)
    _check_interior(d2, e2)
    lo = max(n1 * (d1.e_min - e1), n2 * (e2 - d2.e_max))
    hi = min(n1 * (d1.e_max - e1), n2 * (e2 - d2.e_min))
    span = hi - lo

    def xs(eps: float) -> tuple[float, float]:
        # clipped, so the feasibility edges put a system exactly on its support edge
        return min(max(e1 + eps / n1, d1.e_min), d1.e_max), min(max(e2 - eps / n2, d2.e_min), d2.e_max)

    def gap(eps: float) -> tuple[float, float]:
        x1, x2 = xs(eps)
        (b1, s1), (b2, s2) = _beta(d1.poly, x1), _beta(d2.poly, x2)
        return b1 - b2, s1 / n1 + s2 / n2

    ga, gb = gap(lo)[0], gap(hi)[0]
    boundary = not ga > 0.0 > gb
    if boundary:
        # entropy is monotone across the whole feasible interval
        eps = lo if ga <= 0.0 else hi
        x1, x2 = xs(eps)
    else:
        eps = decreasing_root(gap, lo, hi, span)
        # a position within the solver tolerance of a knot is put on it,
        # where value() is right-sided, so a kink optimum reports the
        # same temperatures from either side
        tol = _RTOL * max(abs(eps), span)
        x1, x2 = xs(eps)
        x1, x2 = _onto_knot(d1.poly, x1, tol / n1), _onto_knot(d2.poly, x2, tol / n2)
    w1, w2 = d1.poly.value(x1), d2.poly.value(x2)
    return EquilibrationResult(
        epsilon=float(eps),
        t1=float(_temperature_of(w1, d1.poly.value(x1, 1))),
        t2=float(_temperature_of(w2, d2.poly.value(x2, 1))),
        total_entropy=n1 * math.log(w1) + n2 * math.log(w2) if w1 > 0.0 and w2 > 0.0 else -math.inf,
        boundary=boundary,
    )
