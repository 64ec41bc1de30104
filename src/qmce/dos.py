"""Exact density of states over the manifold of pure states.

For a Hamiltonian with eigenvalues E_1 <= ... <= E_{n+1} (repeated by
multiplicity, Hilbert dimension n+1), the volume Omega(E) of the
constant-energy-expectation surface is, up to the total manifold volume
pi^n/n!, the probability density of sum_k p_k E_k with (p_1..p_{n+1})
uniform on the probability simplex.  That density is the classical
normalized spline with the eigenvalues as knots: a piecewise polynomial
of degree n-1 supported on [E_min, E_max], n-1-m times continuously
differentiable at a knot of multiplicity m.

The construction below runs the two-term spline recursion in the
Bernstein basis of every interval between distinct eigenvalues, where
it adds only nonnegative terms, so Omega keeps a few ulp of relative
error everywhere on its support.  The direct truncated-power sum
(``eval_eq7_direct``) is retained verbatim as an independent
cross-check; it is numerically poor for close eigenvalues and must not
replace the stable path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .piecewise import PiecewisePolynomial, degree_up
from .spectrum import Spectrum, state_volume

_MAX_DIM = 64


@dataclass(frozen=True, eq=False)
class PiecewiseDos:
    """Density of states as an exact piecewise polynomial.

    knots: eigenvalues repeated per multiplicity (length dim = n + 1)
    poly: the piecewise representation of Omega
    """

    knots: np.ndarray
    poly: PiecewisePolynomial

    @property
    def dim(self) -> int:
        return self.knots.size

    @property
    def degree(self) -> int:
        """Polynomial degree n - 1."""
        return self.dim - 2

    @property
    def normalization(self) -> float:
        """Total integral, pi^n / n!."""
        return state_volume(self.dim)

    @property
    def e_min(self) -> float:
        return float(self.knots[0])

    @property
    def e_max(self) -> float:
        return float(self.knots[-1])

    @property
    def breakpoints(self) -> np.ndarray:
        return self.poly.breakpoints


def build_dos(s: Spectrum) -> PiecewiseDos:
    """Exact Omega(E) for the spectrum s.

    Omega is pi^n/n! times the B-spline of degree n - 1 on the knots,
    by the recursion N_{i,k} = (E - t_i)/(t_{i+k} - t_i) N_{i,k-1} +
    (t_{i+k+1} - E)/(t_{i+k+1} - t_{i+1}) N_{i+1,k-1} over the degree,
    for all pieces at once; a term with coincident knots has weight 0,
    so degenerate levels need no special casing.  Each factor enters by
    its values at both ends of a piece (``degree_up``), clipped at 0 where
    its B-spline vanishes on the piece anyway.
    """
    dim = s.dim
    if dim > _MAX_DIM:
        raise ResourceLimitError(
            f"dim = {dim} exceeds the exact-path guard ({_MAX_DIM})"
        )
    n = dim - 1
    t = s.knots.astype(float)
    a, b = s.energies[:-1], s.energies[1:]

    def ramp(num, den):
        return np.where(den > 0.0, np.maximum(num, 0.0) / np.where(den > 0.0, den, 1.0), 0.0)

    # c[l, i, j]: coefficient l of N_{i,k} on piece j; N_{i,0} is 1 on the piece [t_i, t_{i+1}) covers
    c = ((t[:-1, None] <= a) & (t[1:, None] >= b)).astype(float)[None]
    for k in range(1, n):
        lo, top = t[: dim - 1 - k, None], t[k + 1 :, None]
        up, down = t[k : dim - 1, None] - lo, top - t[1 : dim - k, None]
        left, right = c[:, :-1], c[:, 1:]
        start, end = (ramp(x - lo, up) * left + ramp(top - x, down) * right for x in (a, b))
        c = degree_up(start, end)
    # integral of N_0 is (E_max - E_min)/n
    bern = np.ascontiguousarray(c[:, 0].T) * (state_volume(dim) * n / (t[-1] - t[0]))
    return PiecewiseDos(knots=t, poly=PiecewisePolynomial.from_bernstein(s.energies, bern))


def eval_dos(d: PiecewiseDos, e):
    """Omega at energy e (scalar or array).

    Zero outside [E_min, E_max]; at knots the continuous limiting value
    (for dim 2 the constant extends to both closed endpoints).
    """
    return d.poly.value(e)


def eval_dos_derivative(d: PiecewiseDos, e: float, order: int = 1) -> tuple[float, float]:
    """Exact one-sided derivatives (left, right) of Omega at e.

    Both sides agree away from knots; at a knot of multiplicity m they
    agree through order n-1-m and differ from order n-m on.
    """
    if order < 0 or order > d.degree:
        raise InvalidInputError(
            f"derivative order {order} outside 0..{d.degree}"
        )
    return d.poly.one_sided(float(e), order)


def integrate_dos(d: PiecewiseDos, a: float, b: float) -> float:
    """Exact integral of Omega over [a, b], clipped to the support."""
    return d.poly.integrate(float(a), float(b))


def eval_eq7_direct(s: Spectrum, e: float) -> float:
    """Direct truncated-power sum for nondegenerate spectra.

    Omega(E) = (-pi)^n/(n-1)! * sum_k (E_k - E)^{n-1}
               * prod_{l != k} [E_k > E] / (E_l - E_k).

    Massive cancellation between terms makes this unstable for close
    eigenvalues; kept only as an independent cross-check of the stable
    piecewise construction.
    """
    if not s.nondegenerate:
        raise InvalidInputError("direct sum requires a nondegenerate spectrum")
    es = s.energies
    n = es.size - 1
    total = 0.0
    for k in range(es.size):
        if es[k] > e:
            denom = 1.0
            for l in range(es.size):
                if l != k:
                    denom *= es[l] - es[k]
            total += (es[k] - e) ** (n - 1) / denom
    return (-math.pi) ** n / math.factorial(n - 1) * total
