"""Canonical ensemble as the Laplace transform of the density of states.

Z(beta) = integral of Omega(E) exp(-beta*E) dE, with beta = 1/(k_B T)
and k_B = 1, matching the thermodynamic functions.

Every canonical quantity comes from one log-domain table,
``_canonical_table``.  It shifts Omega to the reference energy
E_ref = E_min where beta >= 0 (E_max where beta < 0), so each factor
exp(-beta*(E - E_ref)) is at most 1, and one
``PiecewisePolynomial.laplace`` call gives the shifted moments

    M_k = integral (E - E_ref)^k Omega(E) exp(-beta*(E - E_ref)) dE,

k = 0, 1, 2, for a whole beta array.  From them

    log Z = log M_0 - beta*E_ref,    U = E_ref + M_1/M_0,
    Var(E) = M_2/M_0 - (M_1/M_0)^2 = -dU/dbeta,

which hold wherever the spectrum sits; Z = M_0 exp(-beta*E_ref) itself
saturates to 0 or inf only where it leaves the double range.
``solve_thermal_energy`` inverts U(beta) = E by safeguarded Newton steps
on the same table (slope -Var), with the root finder that also serves the
microcanonical solves (``roots.decreasing_root``).

The literal closed form for nondegenerate spectra,
  Z = sum_k exp(-beta*E_k) prod_{l != k} pi/(beta*(E_l - E_k)),
whose terms individually diverge like beta^{-n} as beta -> 0 and cancel
to ~n digits once beta*(spectral width) < 1, is retained verbatim as the
paper's cross-check and used only in its comfort zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dos import PiecewiseDos, build_dos
from .errors import InvalidInputError, NoSolutionError
from .piecewise import PiecewisePolynomial
from .roots import decreasing_root
from .spectrum import Spectrum

_SMALL_BETA_WIDTH = 1.0  # below beta*width = 1 the literal sum loses digits
_MAX_BETA_WIDTH = 600.0  # exp range guard for the canonical solver
_EPS = math.ulp(1.0)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class CanonicalEval:
    """One canonical-ensemble sample: Z and U at a given beta.

    method records which path produced Z: 'closed-form' (literal
    nondegenerate sum) or 'quadrature' (exact piecewise transform).
    U always comes from the stable transform ratio.
    """

    beta: float
    Z: float
    U: float
    method: str


@dataclass(frozen=True)
class _CanonicalTable:
    """Canonical quantities over a beta array from one shifted transform.

    e_ref is E_min where beta >= 0 and E_max where beta < 0; m0 is the
    shifted partition function Z*exp(beta*e_ref); du = U - e_ref and var
    = Var(E) = -dU/dbeta.  All fields have the shape of beta.
    """

    beta: np.ndarray
    e_ref: np.ndarray
    m0: np.ndarray
    du: np.ndarray
    var: np.ndarray

    @property
    def log_Z(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.m0) - self.beta * self.e_ref

    @property
    def U(self) -> np.ndarray:
        return self.e_ref + self.du

    @property
    def Z(self) -> np.ndarray:
        """M_0 exp(-beta*e_ref); exp(log Z) only where that factor is not a
        normal double, which saturates to 0 or inf outside the double range."""
        with np.errstate(over="ignore", under="ignore"):
            scale = np.exp(-self.beta * self.e_ref)
            return np.where((scale >= _TINY) & (scale < math.inf), self.m0 * scale, np.exp(self.log_Z))


def _poly_of(poly_or_dos) -> PiecewisePolynomial:
    return poly_or_dos.poly if isinstance(poly_or_dos, PiecewiseDos) else poly_or_dos


def _shifted_moments(poly: PiecewisePolynomial, beta, ref: float) -> np.ndarray:
    return PiecewisePolynomial.from_bernstein(poly.breakpoints - ref, poly.bernstein).laplace(beta, (0, 1, 2))


def _canonical_table(poly_or_dos, beta) -> _CanonicalTable:
    """log Z, Z, U and Var(E) at every beta (any real scalar or array).

    Accepts a PiecewiseDos or a composite PiecewisePolynomial (n-fold
    systems).  One ``laplace`` call covers all betas of one sign.
    """
    poly = _poly_of(poly_or_dos)
    b = np.asarray(beta, dtype=float)
    lo, hi = poly.support
    up = b >= 0.0
    if up.all() or not up.any():
        m = _shifted_moments(poly, b, lo if up.all() else hi)
    else:
        m = np.empty(b.shape + (3,))
        m[up] = _shifted_moments(poly, b[up], lo)
        m[~up] = _shifted_moments(poly, b[~up], hi)
    du = m[..., 1] / m[..., 0]
    return _CanonicalTable(
        beta=b, e_ref=np.where(up, lo, hi), m0=m[..., 0], du=du, var=m[..., 2] / m[..., 0] - du * du
    )


def _literal_terms(s: Spectrum, beta: float) -> tuple[float, float]:
    """Closed-form sum and its largest |term| (the cancellation gauge)."""
    es = s.energies
    total = 0.0
    tmax = 0.0
    for k in range(es.size):
        term = math.exp(-beta * es[k])
        for l in range(es.size):
            if l != k:
                term *= math.pi / (beta * (es[l] - es[k]))
        total += term
        tmax = max(tmax, abs(term))
    return total, tmax


def _partition_eq9_literal(s: Spectrum, beta: float) -> float:
    """The closed-form sum exactly as written; no stability rescue."""
    return _literal_terms(s, beta)[0]


def _closed_form(s: Spectrum, beta: float) -> float | None:
    """The literal sum when well conditioned, else None.

    Two rejections: the fixed small-beta threshold (below beta*width = 1
    the terms are guaranteed to cancel ~n digits) and a runtime gauge —
    the literal value is kept only when max|term| * n_levels * ulp stays
    below 1e-11 of the sum, i.e. when rounding noise provably sits under
    the agreement tolerance.
    """
    if s.nondegenerate and beta * s.width >= _SMALL_BETA_WIDTH:
        total, tmax = _literal_terms(s, beta)
        if tmax * s.dim * _EPS <= 1e-11 * total:
            return total
    return None


def partition_closed(s: Spectrum, beta: float) -> float:
    """Closed-form Z(beta) for a nondegenerate spectrum.

    Where the literal sum cancels catastrophically (small beta*width,
    or near-threshold conditioning at larger dimension) the stable
    transform is substituted automatically (same mathematical value).
    """
    if beta <= 0.0:
        raise InvalidInputError("beta must be positive")
    if not s.nondegenerate:
        raise InvalidInputError(
            "closed form requires a nondegenerate spectrum; use partition_stable"
        )
    z = _closed_form(s, beta)
    return partition_stable(build_dos(s), beta) if z is None else z


def partition_stable(d: PiecewiseDos, beta: float) -> float:
    """Z(beta) by exact piecewise integration; any beta > 0, any spectrum.

    Saturates to 0 or inf where Z leaves the double range."""
    if beta <= 0.0:
        raise InvalidInputError("beta must be positive")
    return float(_canonical_table(d, beta).Z)


def thermal_energy(d: PiecewiseDos, beta: float) -> float:
    """Canonical mean energy U(beta) = -d ln Z/d beta, piecewise-exact."""
    if beta <= 0.0:
        raise InvalidInputError("beta must be positive")
    return float(_canonical_table(d, beta).U)


def canonical_eval(source, beta: float) -> CanonicalEval:
    """One (beta, Z, U) row from a Spectrum or a prebuilt PiecewiseDos."""
    if beta <= 0.0:
        raise InvalidInputError("beta must be positive")
    d = build_dos(source) if isinstance(source, Spectrum) else source
    t = _canonical_table(d, beta)
    z, method = float(t.Z), "quadrature"
    if isinstance(source, Spectrum):
        literal = _closed_form(source, beta)
        if literal is not None:
            z, method = literal, "closed-form"
    return CanonicalEval(beta=float(beta), Z=z, U=float(t.U), method=method)


def nfold_dos(d: PiecewiseDos, n: int) -> PiecewisePolynomial:
    """Density of states of n independent copies: the n-fold convolution.

    Returns the piecewise polynomial in the total energy (binary
    doubling keeps it at O(log n) convolutions).  Its integral is
    normalization**n, not a single-system volume, so the result is a
    plain PiecewisePolynomial rather than a PiecewiseDos.
    """
    if int(n) != n or n < 1:
        raise InvalidInputError("fold count must be a positive integer")
    n = int(n)
    result: PiecewisePolynomial | None = None
    base = d.poly
    while n:
        if n & 1:
            result = base if result is None else result.convolve(base)
        n >>= 1
        if n:
            base = base.convolve(base)
    return result


def solve_thermal_energy(poly_or_dos, target: float) -> float:
    """The beta at which the canonical mean energy equals target.

    U(beta) is strictly decreasing with range (support minimum, support
    maximum), so the solution is unique.  ``roots.decreasing_root`` finds
    it in g = |beta| on the side of the root: every step reads U and
    dU/dbeta = -Var(E) from one ``_canonical_table`` call and compares
    U - E_ref with target - E_ref, so the residual keeps its digits at
    any offset.  |beta|*width is capped at _MAX_BETA_WIDTH; the cap is
    evaluated only when a step would pass it, and a root beyond it raises
    ConvergenceError.  Accepts a PiecewiseDos or a composite
    PiecewisePolynomial (n-fold systems).
    """
    poly = _poly_of(poly_or_dos)
    lo, hi = poly.support
    if not lo < target < hi:
        raise InvalidInputError(
            f"target energy {target:g} must lie strictly inside ({lo:g}, {hi:g})"
        )
    width = hi - lo
    t = _canonical_table(poly, 0.0)
    u0 = float(t.U)
    if target == u0:
        return 0.0
    # solve for g = |beta| on the side of the root: f(g) = sign*(U - target)
    # falls from f(0) > 0 with slope -Var
    sign, edge = (1.0, "minimum") if target < u0 else (-1.0, "maximum")

    def residual(tab: _CanonicalTable) -> tuple[float, float]:
        return sign * (float(tab.du) - (target - float(tab.e_ref))), -float(tab.var)

    g = decreasing_root(
        lambda g: residual(_canonical_table(poly, sign * g)),
        0.0, _MAX_BETA_WIDTH / width, 1.0 / width,
        start=(0.0, *residual(t)),
        far_error=f"target too close to the spectral {edge} for the canonical solver",
    )
    return sign * g


def beta_temperature_consistency(poly_or_dos, e: float) -> tuple[float, float, float]:
    """Compare the canonical and microcanonical inverse temperatures at e.

    Returns (beta_canonical, beta_micro, gap): beta_micro = Omega'/Omega,
    beta_canonical solves U(beta) = e, gap is their relative difference
    |bc - bm|/|bc|.  For one small system the gap is genuinely nonzero;
    it shrinks as the system is composed with copies of itself (pass the
    n-fold polynomial and the total energy).
    """
    poly = _poly_of(poly_or_dos)
    lo, hi = poly.support
    e = float(e)
    if not lo < e < hi:
        raise InvalidInputError(
            f"energy {e:g} must lie strictly inside ({lo:g}, {hi:g})"
        )
    w = poly.value(e)
    w1 = poly.derivative_value(e, 1)
    if w1 == 0.0:
        raise NoSolutionError("beta_micro undefined where Omega' = 0")
    if w <= 0.0:
        raise InvalidInputError("Omega underflows at this energy")
    beta_micro = w1 / w
    beta_canonical = solve_thermal_energy(poly, e)
    if beta_canonical == 0.0:
        gap = 0.0 if beta_micro == 0.0 else math.inf
    else:
        gap = abs(beta_canonical - beta_micro) / abs(beta_canonical)
    return beta_canonical, beta_micro, gap
