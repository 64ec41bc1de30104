"""Microcanonical thermodynamics derived from the density of states.

Natural units throughout: temperatures are k_B*T in energy units,
entropy and specific heat in units of k_B.  A single recorded scale
(ThermoCurve.kB) converts for display; the stored arrays always use
k_B = 1.

Log-concavity of Omega (a spline density with nonnegative weights)
underpins the numerics: beta = Omega'/Omega is nonincreasing in E, so
T(E) is monotone on each side of the mode and root finding is
bisection-safe, C >= 0, and the two-system entropy objective of
``equilibrate`` is concave in the exchanged energy.

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

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


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


def _noise_floor(poly: PiecewisePolynomial, x: float) -> float:
    """Rounding-noise bound for evaluating the piece containing x."""
    bp = poly.breakpoints
    j = min(max(int(np.searchsorted(bp, x, side="right")) - 1, 0), poly.npieces - 1)
    xi = x - bp[j]
    c = np.abs(poly.coefficients[j])
    return 16.0 * math.ulp(1.0) * float(np.sum(c * xi ** np.arange(c.size)))


def _multiplicity(d: PiecewiseDos, e: float) -> int:
    """How often e occurs among the knots (0 away from the levels)."""
    k = d.knots
    return int(np.searchsorted(k, e, side="right") - np.searchsorted(k, e, side="left"))


def _sided(d: PiecewiseDos, e: float, order: int, side: str | None) -> float:
    left, right = d.poly.one_sided(e, order)
    if side == "left":
        return left
    if side == "right":
        return right
    m = _multiplicity(d, e)
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
    divergent-specific-heat signal.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
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
    is (E_mode', E_max) beyond the largest maximizer.  Bisection on the
    monotone branch brackets the root of Omega - t*Omega', a Newton
    polish with exact derivatives finishes it, and the residual is
    required to meet 1e-12 relative — a temperature that falls inside
    a jump of T(E) at a knot is reported as unattainable.
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
        a, b, lsign = d.e_min, x_lo, -1.0
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
        a, b, lsign = x_hi, d.e_max, 1.0

    def g(x: float) -> float:
        return d.poly.value(x) - t * d.poly.derivative_value(x, 1)

    for _ in range(90):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        if g(mid) * lsign > 0.0:
            a = mid
        else:
            b = mid
    x = 0.5 * (a + b)
    for _ in range(8):
        gp = d.poly.derivative_value(x, 1) - t * d.poly.derivative_value(x, 2)
        if gp == 0.0:
            break
        step = g(x) / gp
        nxt = x - step
        if not a <= nxt <= b:
            break
        x = nxt
        if abs(step) <= 1e-16 * width:
            break
    l0, r0 = d.poly.one_sided(x, 0)
    l1v, r1v = d.poly.one_sided(x, 1)
    res = min(abs(l0 - t * l1v), abs(r0 - t * r1v))
    scale = max(abs(l0), abs(r0), abs(t * l1v), abs(t * r1v), 1e-300)
    if res > 1e-12 * scale:
        raise NoSolutionError(
            f"kB*T = {t:g} falls inside a temperature jump at E = {x:.17g}"
        )
    return float(x)


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
    out = []
    for e in d.poly.breakpoints[1:-1]:
        e = float(e)
        order = d.dim - 1 - _multiplicity(d, e)
        lv, rv = d.poly.one_sided(e, order)
        l1, r1 = d.poly.one_sided(e, 1)
        w1 = r1 if order == 1 else 0.5 * (l1 + r1)
        t = float(_temperature_of(d.poly.value(e), w1))
        out.append(CriticalPoint(e, t, order, (float(lv), float(rv))))
    return out


def equilibrate(
    d1: PiecewiseDos, e1: float, n1: int, d2: PiecewiseDos, e2: float, n2: int
) -> EquilibrationResult:
    """Maximize N1 ln Omega1(E1 + eps/N1) + N2 ln Omega2(E2 - eps/N2).

    Golden-section search on the concave entropy localizes the optimum,
    then a safeguarded Newton iteration on the stationarity condition
    beta1 = beta2 (monotone in eps) polishes it.  At an interior smooth
    optimum the returned temperatures agree; an optimum pinned at a
    knot where beta jumps is returned as-is with one-sided (right)
    temperatures, and a maximum at the feasibility edge sets the
    boundary flag.
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
    inset = 1e-13 * span

    def xs(eps: float) -> tuple[float, float]:
        return e1 + eps / n1, e2 - eps / n2

    def entropy(eps: float) -> float:
        x1, x2 = xs(eps)
        w1v, w2v = d1.poly.value(x1), d2.poly.value(x2)
        if w1v <= 0.0 or w2v <= 0.0:
            return -math.inf
        return n1 * math.log(w1v) + n2 * math.log(w2v)

    def beta(d: PiecewiseDos, x: float) -> float:
        w = d.poly.value(x)
        if w <= 0.0:
            return math.inf if x - d.e_min < d.e_max - x else -math.inf
        return d.poly.derivative_value(x, 1) / w

    def beta_prime(d: PiecewiseDos, x: float) -> float:
        w = d.poly.value(x)
        if w <= 0.0:
            return 0.0
        w1 = d.poly.derivative_value(x, 1)
        w2 = d.poly.derivative_value(x, 2)
        return (w2 * w - w1 * w1) / (w * w)

    def gap(eps: float) -> float:
        x1, x2 = xs(eps)
        return beta(d1, x1) - beta(d2, x2)

    def trusted(eps: float) -> bool:
        x1, x2 = xs(eps)
        return (
            d1.poly.value(x1) > _noise_floor(d1.poly, x1)
            and d2.poly.value(x2) > _noise_floor(d2.poly, x2)
        )

    # near the outer end of a piece the polynomial evaluates by
    # cancellation and Omega drowns in rounding noise, making beta
    # garbage there; push each probe inward until both values clear
    # their noise floors so the bracketing signs are real
    inset_a = inset
    while not trusted(lo + inset_a) and inset_a < 0.015625 * span:
        inset_a *= 8.0
    inset_b = inset
    while not trusted(hi - inset_b) and inset_b < 0.015625 * span:
        inset_b *= 8.0
    a, b = lo + inset_a, hi - inset_b
    ga, gb = gap(a), gap(b)
    if not ga > 0.0 > gb:
        # entropy is monotone across the whole feasible interval
        eps = a if ga <= 0.0 else b
        boundary = True
    else:
        boundary = False
        tol = max(1e-10 * n1 * (d1.e_max - d1.e_min), 4e-16 * span)
        ga_, gb_ = a, b
        c = gb_ - _GOLD * (gb_ - ga_)
        dd = ga_ + _GOLD * (gb_ - ga_)
        fc, fd = entropy(c), entropy(dd)
        while gb_ - ga_ > tol:
            if fc >= fd:
                gb_, dd, fd = dd, c, fc
                c = gb_ - _GOLD * (gb_ - ga_)
                fc = entropy(c)
            else:
                ga_, c, fc = c, dd, fd
                dd = ga_ + _GOLD * (gb_ - ga_)
                fd = entropy(dd)
        # Newton polish on the stationarity condition, safeguarded by
        # the full feasible bracket (gap(a) > 0 > gap(b) holds there);
        # at a knot where beta jumps the fallback bisection takes over
        eps = 0.5 * (ga_ + gb_)
        for _ in range(80):
            gm = gap(eps)
            if gm > 0.0:
                a = eps
            elif gm < 0.0:
                b = eps
            else:
                break
            x1, x2 = xs(eps)
            gp = beta_prime(d1, x1) / n1 + beta_prime(d2, x2) / n2
            nxt = eps - gm / gp if gp != 0.0 else 0.5 * (a + b)
            if not a < nxt < b:
                nxt = 0.5 * (a + b)
            if abs(nxt - eps) <= 4e-16 * max(abs(eps), span):
                eps = nxt
                break
            eps = nxt
    x1, x2 = xs(eps)
    return EquilibrationResult(
        epsilon=float(eps),
        t1=float(_temperature_of(d1.poly.value(x1), d1.poly.value(x1, 1))),
        t2=float(_temperature_of(d2.poly.value(x2), d2.poly.value(x2, 1))),
        total_entropy=entropy(eps),
        boundary=boundary,
    )
