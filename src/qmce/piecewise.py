"""Piecewise polynomials with exact local coefficients.

A function is stored as consecutive intervals [b_j, b_{j+1}) with one
polynomial per interval written in the shifted variable u = x - b_j.
Keeping coefficients local to each interval avoids the catastrophic
cancellation that plagues a global monomial basis, while still giving
exact one-sided derivatives, antiderivatives, convolutions and Laplace
transforms by direct coefficient manipulation.

Outside [b_0, b_last] the function is identically zero.  Pieces are
half-open; ``value`` treats the final right endpoint as closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp


def _compose_linear(coeffs: np.ndarray, a0: float, a1: float) -> np.ndarray:
    """Coefficients of p(a0 + a1*u) given the coefficients of p(u).

    Horner's scheme over polynomial arithmetic; exact up to round-off.
    """
    out = np.zeros(1)
    for c in coeffs[::-1]:
        out = npp.polymul(out, [a0, a1])
        out[0] += c
    return out


def _deriv_coeffs(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Ascending coefficients of the order-th derivative along the last axis."""
    c = np.asarray(coeffs, dtype=float)
    for _ in range(order):
        if c.shape[-1] <= 1:
            return np.zeros(c.shape[:-1] + (1,))
        c = c[..., 1:] * np.arange(1, c.shape[-1])
    return c


def _polyval(u, coeffs):
    return npp.polyval(u, coeffs)


def _exp_moments(beta, h, mmax: int) -> np.ndarray:
    """I_m = integral of u^m * exp(-beta*u) over [0, h] for m = 0..mmax.

    beta >= 0 and h > 0 are scalars or broadcastable arrays; the result
    has their broadcast shape plus a trailing moment axis of mmax + 1.
    I_m = h^{m+1} J_m(z) with z = beta*h and J_m(z) the integral of
    t^m e^{-zt} over [0, 1], computed without cancellation for every z
    at once (Gautschi's direction rule for J_m = (m J_{m-1} - e^{-z})/z):

    * z <= mmax + 1: the all-positive series
      J_M = e^{-z} sum_j z^j / ((M+1)(M+2)...(M+1+j)), then downward
      J_{m-1} = (z J_m + e^{-z})/m, which only adds positive terms;
    * z > mmax + 1: upward from J_0 = -expm1(-z)/z, where every step
      damps the error by m/z < 1.
    """
    beta = np.asarray(beta, dtype=float)
    h = np.asarray(h, dtype=float)
    if np.any(beta < 0.0) or np.any(h <= 0.0):
        raise ValueError("beta must be nonnegative and h positive")
    z = beta * h
    j = np.empty(z.shape + (mmax + 1,))
    down = z <= mmax + 1
    zd = z[down]
    term = np.full(zd.shape, 1.0 / (mmax + 1))
    total = term.copy()
    k = mmax + 1
    # terms shrink monotonically; once all are below 0.2 ulp of their
    # sums further terms leave every sum unchanged
    while np.any(term > 1e-17 * total):
        k += 1
        term = term * zd / k
        total += term
    ez = np.exp(-zd)
    jd = np.empty(zd.shape + (mmax + 1,))
    jd[:, mmax] = ez * total
    for m in range(mmax, 0, -1):
        jd[:, m - 1] = (zd * jd[:, m] + ez) / m
    j[down] = jd
    zu = z[~down]
    ez = np.exp(-zu)
    ju = np.empty(zu.shape + (mmax + 1,))
    ju[:, 0] = -np.expm1(-zu) / zu
    for m in range(1, mmax + 1):
        ju[:, m] = (m * ju[:, m - 1] - ez) / zu
    j[~down] = ju
    j *= h[..., None] ** np.arange(1, mmax + 2)
    return j


def _binomial_reflection(n: int) -> np.ndarray:
    """R with (d @ R)[l] = (-1)^l sum_i C(i, l) d[i]: the coefficients of
    q(t) = p(1 - t) from those of p, both on [0, 1]."""
    return np.array(
        [[(-1.0) ** l * math.comb(i, l) for l in range(n)] for i in range(n)]
    )


@dataclass(frozen=True, eq=False)
class PiecewisePolynomial:
    """Polynomial pieces on consecutive intervals, zero outside.

    breakpoints: strictly increasing, shape (npieces + 1,)
    coefficients: shape (npieces, degree + 1); row j holds ascending
        coefficients of the piece on [b_j, b_{j+1}) in u = x - b_j.
    """

    breakpoints: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        co = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if co.shape[0] != bp.size - 1:
            raise ValueError("one coefficient row per interval required")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", co)

    @property
    def npieces(self) -> int:
        return self.coefficients.shape[0]

    @property
    def degree(self) -> int:
        return self.coefficients.shape[1] - 1

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    # -- evaluation ----------------------------------------------------

    def value(self, x, order: int = 0):
        """Evaluate the order-th derivative at x (scalar or array).

        Right-sided at breakpoints; the last endpoint is closed, so it
        takes the left limit there.
        """
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        bp = self.breakpoints
        idx = np.searchsorted(bp, xs, side="right") - 1
        idx = np.clip(idx, 0, self.npieces - 1)
        u = xs - bp[idx]
        co = _deriv_coeffs(self.coefficients, order)
        out = co[idx, -1].copy()
        for i in range(co.shape[1] - 2, -1, -1):
            out = out * u + co[idx, i]
        out[(xs < bp[0]) | (xs > bp[-1])] = 0.0
        return float(out[0]) if scalar else out

    def one_sided(self, x: float, order: int = 0) -> tuple[float, float]:
        """Exact one-sided derivative values (left, right) at x.

        The zero function outside the support supplies the outer limits,
        so both entries vanish beyond [b_0, b_last].
        """
        bp = self.breakpoints
        left = 0.0
        if bp[0] < x <= bp[-1]:
            j = int(np.searchsorted(bp, x, side="left")) - 1
            c = _deriv_coeffs(self.coefficients[j], order)
            left = float(_polyval(x - bp[j], c))
        right = 0.0
        if bp[0] <= x < bp[-1]:
            j = int(np.searchsorted(bp, x, side="right")) - 1
            c = _deriv_coeffs(self.coefficients[j], order)
            right = float(_polyval(x - bp[j], c))
        return left, right

    def derivative_value(self, x: float, order: int = 1) -> float:
        """Two-sided derivative away from breakpoints; right-sided at them
        (left-sided at the top of the support)."""
        return self.value(x, order)

    # -- calculus ------------------------------------------------------

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b] (clipped to the support)."""
        sign = 1.0
        if b < a:
            a, b = b, a
            sign = -1.0
        bp = self.breakpoints
        a = max(a, bp[0])
        b = min(b, bp[-1])
        if b <= a:
            return 0.0
        total = 0.0
        j0 = max(int(np.searchsorted(bp, a, side="right")) - 1, 0)
        for j in range(j0, self.npieces):
            lo = max(a, bp[j])
            hi = min(b, bp[j + 1])
            if hi <= lo:
                break
            anti = npp.polyint(self.coefficients[j])
            total += _polyval(hi - bp[j], anti) - _polyval(lo - bp[j], anti)
        return sign * total

    def integral(self) -> float:
        return self.integrate(self.breakpoints[0], self.breakpoints[-1])

    def scaled(self, factor: float) -> "PiecewisePolynomial":
        return PiecewisePolynomial(self.breakpoints, self.coefficients * factor)

    def argmax(self, smallest: bool = True) -> tuple[float, float]:
        """Location and value of the global maximum over the support.

        Ties within 1e-12 relative resolve to the smallest x when
        ``smallest`` is set, else to the largest.
        """
        best_x = None
        best_v = -math.inf
        bp = self.breakpoints
        for j in range(self.npieces):
            h = bp[j + 1] - bp[j]
            cand = [0.0]
            if j == self.npieces - 1:
                cand.append(h)
            dc = _deriv_coeffs(self.coefficients[j], 1)
            if dc.size > 1 or dc[0] != 0.0:
                roots = np.roots(dc[::-1]) if dc.size > 1 else np.array([])
                for r in np.atleast_1d(roots):
                    if abs(r.imag) < 1e-9 * (1.0 + abs(r.real)) and 0.0 < r.real < h:
                        cand.append(float(r.real))
            for u in cand:
                v = float(_polyval(u, self.coefficients[j]))
                x = float(bp[j] + u)
                if best_x is None:
                    best_x, best_v = x, v
                    continue
                tol = 1e-12 * max(abs(v), abs(best_v), 1e-300)
                if v > best_v + tol:
                    best_x, best_v = x, v
                elif abs(v - best_v) <= tol:
                    if (smallest and x < best_x) or (not smallest and x > best_x):
                        best_x = x
        return best_x, best_v

    # -- transforms ----------------------------------------------------

    def laplace(self, beta, moment=0):
        """integral of x^k * p(x) * exp(-beta*x) over the support, k = moment.

        beta is any real scalar or array: a scalar gives a float, an array
        an array of its shape.  moment is 0, 1 or 2, or a sequence of
        them, which stacks the moments on a trailing axis.  Each call
        builds one (beta, piece, moment) table of ``_exp_moments`` in the
        unit variable t = (x - b_j)/h_j; for beta < 0 every piece is
        reflected onto its right endpoint, t -> 1 - t, so the exponential
        always decays.  The factors exp(-beta*anchor) are not rescaled:
        callers that need a reference shift (``_canonical_table``) shift
        the breakpoints first.
        """
        ks = np.atleast_1d(np.asarray(moment))
        if not np.isin(ks, (0, 1, 2)).all():
            raise ValueError("moment must be 0, 1 or 2")
        b = np.asarray(beta, dtype=float)
        flat = b.reshape(-1, 1)
        neg = flat < 0.0
        bp = self.breakpoints
        h = np.diff(bp)
        n = self.degree + 1
        d = self.coefficients * h[:, None] ** np.arange(n)  # coefficients in t
        if neg.any():
            d = np.where(neg[..., None], (d @ _binomial_reflection(n))[None], d[None])
        anchor = np.where(neg, bp[1:], bp[:-1])
        sign = np.where(neg, -1.0, 1.0)
        jm = _exp_moments(np.abs(flat) * h, 1.0, n + 1)
        s0, s1, s2 = (h ** (l + 1) * np.sum(d * jm[..., l : l + n], axis=-1) for l in range(3))
        with np.errstate(over="ignore"):
            w = np.exp(-flat * anchor)
        # x = anchor + sign*h*t on every piece
        per_piece = {
            0: s0,
            1: anchor * s0 + sign * s1,
            2: anchor * anchor * s0 + 2.0 * sign * anchor * s1 + s2,
        }
        out = np.stack([np.sum(w * per_piece[k], axis=-1) for k in ks.tolist()], axis=-1)
        out = out.reshape(b.shape + ks.shape)
        if np.ndim(moment) == 0:
            out = out[..., 0]
            return float(out) if b.ndim == 0 else out
        return out

    def convolve(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        """Exact convolution (f*g)(x) = integral f(t) g(x-t) dt.

        Output breakpoints are the pairwise sums of input breakpoints
        (merged within a relative sliver tolerance); on each output
        interval the contribution of every overlapping piece pair is a
        polynomial, assembled by exact bivariate coefficient algebra.
        """
        bpf, bpg = self.breakpoints, other.breakpoints
        sums = np.sort(np.add.outer(bpf, bpg).ravel())
        span = (bpf[-1] - bpf[0]) + (bpg[-1] - bpg[0])
        merged = [sums[0]]
        for s in sums[1:]:
            if s - merged[-1] > 1e-12 * span:
                merged.append(s)
        out_bp = np.asarray(merged)
        degree = self.degree + other.degree + 1
        out_co = np.zeros((out_bp.size - 1, degree + 1))
        for k in range(out_bp.size - 1):
            lo, hi = out_bp[k], out_bp[k + 1]
            xm = 0.5 * (lo + hi)
            acc = np.zeros(1)
            for i in range(self.npieces):
                hf = bpf[i + 1] - bpf[i]
                for j in range(other.npieces):
                    hg = bpg[j + 1] - bpg[j]
                    s0 = bpf[i] + bpg[j]
                    w_m = xm - s0
                    if not (0.0 < w_m < hf + hg):
                        continue
                    # bivariate r[a, b] = coeff of u^a w^b in p(u) q(w-u)
                    q = other.coefficients[j]
                    biv = np.zeros((q.size, q.size))
                    for b_idx in range(q.size):
                        qb = q[b_idx]
                        if qb == 0.0:
                            continue
                        comb = 1.0
                        for g in range(b_idx + 1):
                            biv[g, b_idx - g] += qb * comb * (-1.0) ** g
                            comb = comb * (b_idx - g) / (g + 1)
                    p = self.coefficients[i]
                    full = np.zeros((p.size + q.size - 1, q.size))
                    for a_idx in range(p.size):
                        if p[a_idx] != 0.0:
                            full[a_idx : a_idx + q.size, :] += p[a_idx] * biv
                    # antiderivative in u
                    anti = np.zeros((full.shape[0] + 1, q.size))
                    anti[1:, :] = full / np.arange(1, full.shape[0] + 1)[:, None]
                    # integration bounds as polynomials in w
                    u_hi = np.array([hf]) if w_m >= hf else np.array([0.0, 1.0])
                    u_lo = np.array([0.0]) if w_m <= hg else np.array([-hg, 1.0])
                    term = npp.polysub(
                        _eval_biv(anti, u_hi), _eval_biv(anti, u_lo)
                    )
                    # shift w = xi + (lo - s0) to the local variable xi
                    acc = npp.polyadd(acc, _compose_linear(term, lo - s0, 1.0))
            out_co[k, : acc.size] = acc[: degree + 1]
        return PiecewisePolynomial(out_bp, out_co)


def _eval_biv(biv: np.ndarray, u_poly: np.ndarray) -> np.ndarray:
    """Evaluate a bivariate coefficient table at u = u_poly(w).

    biv[a, b] multiplies u^a w^b; returns ascending coefficients in w.
    """
    out = np.zeros(1)
    for a_idx in range(biv.shape[0] - 1, -1, -1):
        out = npp.polyadd(npp.polymul(out, u_poly), biv[a_idx, :])
    return np.trim_zeros(out, "b") if out.any() else np.zeros(1)
