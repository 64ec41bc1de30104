"""Exact density of states over the manifold of pure states.

For a Hamiltonian with eigenvalues E_1 <= ... <= E_{n+1} (repeated by
multiplicity, Hilbert dimension n+1), the volume Omega(E) of the
constant-energy-expectation surface is, up to the total manifold volume
pi^n/n!, the probability density of sum_k p_k E_k with (p_1..p_{n+1})
uniform on the probability simplex.  That density is the classical
normalized spline with the eigenvalues as knots: a piecewise polynomial
of degree n-1 supported on [E_min, E_max], n-1-m times continuously
differentiable at a knot of multiplicity m.

The construction below runs the stable two-term spline recursion once
per interval between distinct eigenvalues, carrying exact polynomial
coefficients in the locally shifted variable E - a.  The direct
truncated-power sum (``eval_eq7_direct``) is retained verbatim as an
independent cross-check; it is numerically poor for close eigenvalues
and must not replace the stable path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import InvalidInputError, ResourceLimitError
from .piecewise import PiecewisePolynomial
from .spectrum import Spectrum

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
        n = self.dim - 1
        return math.pi**n / math.factorial(n)

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

    Runs the two-term recursion with repeated knots (degenerate levels
    need no special casing) on every interval between consecutive
    distinct eigenvalues; empty-interval contributions carry the
    conventional zero weight.
    """
    dim = s.dim
    if dim > _MAX_DIM:
        raise ResourceLimitError(
            f"dim = {dim} exceeds the exact-path guard ({_MAX_DIM})"
        )
    n = dim - 1
    degree = n - 1
    t = s.knots.astype(float)
    bps = s.energies
    scale = math.pi**n / math.factorial(n - 1) / (t[-1] - t[0])
    coeffs = np.zeros((bps.size - 1, degree + 1))
    for j in range(bps.size - 1):
        a, b = bps[j], bps[j + 1]
        polys = [
            np.array([1.0]) if (t[i] <= a and t[i + 1] >= b) else np.array([0.0])
            for i in range(t.size - 1)
        ]
        for k in range(1, degree + 1):
            nxt = []
            for i in range(t.size - k - 1):
                acc = np.array([0.0])
                d1 = t[i + k] - t[i]
                if d1 > 0.0 and polys[i].any():
                    acc = npp.polyadd(
                        acc, npp.polymul(polys[i], [(a - t[i]) / d1, 1.0 / d1])
                    )
                d2 = t[i + k + 1] - t[i + 1]
                if d2 > 0.0 and polys[i + 1].any():
                    acc = npp.polyadd(
                        acc,
                        npp.polymul(
                            polys[i + 1], [(t[i + k + 1] - a) / d2, -1.0 / d2]
                        ),
                    )
                nxt.append(acc)
            polys = nxt
        row = polys[0] * scale
        coeffs[j, : row.size] = row
    return PiecewiseDos(knots=t, poly=PiecewisePolynomial(bps, coeffs))


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
