"""Piecewise polynomials in Bernstein form.

Each interval [b_j, b_{j+1}) of width h_j carries one polynomial
p(x) = sum_l c_l C(d, l) s^l r^(d - l), s = (x - b_j)/h_j, r = (b_{j+1} - x)/h_j.
A density of states has nonnegative c_l (de Boor, J. Approx. Theory 6,
1972), so each value, subinterval integral and Laplace moment below is
a sum of nonnegative terms with a few ulp of relative error however
small it is; signed local monomials cancel instead, and lose every
digit near the far end of a piece at high degree (Farouki & Rajan,
CAGD 4, 1987).  Derivatives difference the c_l, so their error is
relative to their size on the piece.

Outside [b_0, b_last] the function is identically zero.  Pieces are
half-open; ``value`` treats the final right endpoint as closed.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import numpy.polynomial.polynomial as npp

from .roots import decreasing_root


@functools.cache
def _pascal(d: int) -> np.ndarray:
    """C(k, m) for 0 <= m <= k <= d, zero above the diagonal."""
    return np.array([[math.comb(k, m) for m in range(d + 1)] for k in range(d + 1)], dtype=float)


@functools.cache
def _expansion(d: int) -> tuple[np.ndarray, np.ndarray]:
    """q(w - u) as [u power, w power]: entry (g, m) is q[take] * factor = q_{g+m} C(g+m, g) (-1)^g."""
    g, m = np.indices((d + 1, d + 1))
    return np.minimum(g + m, d), np.where(g + m <= d, _pascal(d)[np.minimum(g + m, d), g] * (-1.0) ** g, 0.0)


def degree_up(start, end) -> np.ndarray:
    """Bernstein coefficients c'_l = ((k - l)/k) start_l + (l/k) end_{l-1}, one degree more.

    The coefficient index is the first axis.  For c times a linear factor
    that is L at the start of the piece and R at its end, start = L c and
    end = R c.
    """
    k = start.shape[0]
    frac = (np.arange(1, k + 1) / k).reshape((k,) + (1,) * (start.ndim - 1))  # l/k, l = 1..k
    out = np.zeros((k + 1,) + start.shape[1:])
    out[:k] = start * frac[::-1]
    out[1:] += end * frac
    return out


def _bernstein_sum(c: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_l c_l s^l r^(d - l) for rows c (binomials included) at points (s, r), as
    max(s, r)^d times a polynomial in q = min(s, r)/max(s, r) <= 1 (Schumaker & Volk,
    CAGD 3, 1986): nonnegative c add only nonnegative terms."""
    d = c.shape[-1] - 1
    flip = s > r
    big = np.where(flip, s, r)
    l = np.arange(d + 1)
    powers = (np.where(flip, r, s) / big)[..., None] ** np.where(flip[..., None], d - l, l)
    return np.sum(c * powers, axis=-1) * big**d


def _left_part(c: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows c restricted to [0, s] (r = 1 - s): de Casteljau in closed form,
    new c_k = sum_m B_m^k(s) c_m, a convex combination."""
    d = c.shape[-1] - 1
    k = np.arange(d + 1)
    weights = _pascal(d) * s[:, None, None] ** k * r[:, None, None] ** np.maximum(k[:, None] - k, 0)
    return np.sum(weights * c[:, None, :], axis=-1)  # zero above the diagonal, as C(k, m) is


def _decay_moments(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """integral over [0, 1] of p(t) exp(-z t) dt for Bernstein rows.

    rows (n + 1, K, pieces), z >= 0 (pieces, B) -> (B, pieces, K), with
    only nonnegative terms for nonnegative rows.  z <= n + 1: e^{-z} sum_j
    z^j/j! mu_j with mu_j the integral of (1 - t)^j p(t), by Horner in z.
    z > n + 1: sum_l c_l m_l with the basis moments m_l = e^{-z}
    1F1(n + 1 - l; n + 2; z)/(n + 1), by Horner in 1/z over W_l = m_l z^{l+1},
    which run from W_{n+1} = e^{-z} z^{n+2}/(n + 1), W_n = n! P(n + 1, z)
    down (n + 1 - l) W_{l-1} = (l + 1) W_{l+1}/z^2 + (1 + (n - 2l)/z) W_l
    (Abramowitz & Stegun 13.4.1), positive for z > n.
    """
    n = rows.shape[0] - 1
    c = rows[..., None]  # (n + 1, K, pieces, 1)
    small = z <= n + 1
    out = np.empty(c.shape[1:3] + z.shape[1:])
    if small.any():
        zs = np.minimum(z, n + 1)
        # row j: C(n, l)/(C(n + j, l) j! (n + j + 1)), so row @ c = mu_j/j!; mu_j of |p| falls with j,
        # and past J = n + 21 + 9 isqrt(n + 2) terms the Poisson tail is < 2^-57 (Chernoff, n < 400)
        j, l = np.arange(n + 21 + 9 * math.isqrt(n + 2))[:, None], np.arange(n + 1)
        ratio = np.where(j > 0, (n + j - l) / ((n + j) * np.maximum(j, 1)), 1.0)
        coef = np.tensordot(np.cumprod(ratio, axis=0) / (n + j + 1), c, axes=1)
        out = np.broadcast_to(coef[-1], out.shape).copy()
        for k in range(coef.shape[0] - 2, -1, -1):
            out *= zs
            out += coef[k]
        out *= np.exp(-zs)
    if not small.all():
        zl = np.maximum(z, n + 1)
        logz = np.log(zl)
        tail = sum(np.exp(k * logz - zl - math.lgamma(k + 1)) for k in range(n + 1))  # Poisson(z) <= n
        upper, w = np.exp((n + 2) * logz - zl) / (n + 1), math.factorial(n) * (1.0 - tail)
        acc = c[n] * w
        for k in range(n, 0, -1):
            upper, w = w, ((k + 1) * upper / (zl * zl) + (1.0 + (n - 2 * k) / zl) * w) / (n + 1 - k)
            acc /= zl
            acc += c[k - 1] * w
        out = np.where(small, out, acc / zl)
    return out.transpose(2, 1, 0)


class PiecewisePolynomial:
    """Polynomial pieces on consecutive intervals, zero outside.

    breakpoints: strictly increasing, shape (npieces + 1,)
    bernstein: shape (npieces, degree + 1); row j holds the Bernstein
        coefficients of the piece on [b_j, b_{j+1}).

    The constructor takes local monomial coefficients, row j ascending in
    u = x - b_j, and converts them once; ``from_bernstein`` takes
    Bernstein rows as they are.
    """

    def __init__(self, breakpoints, coefficients):
        bp, co = self._set(breakpoints, coefficients)
        d = co.shape[1] - 1
        # t^i = sum_{l >= i} C(l, i)/C(d, i) B_l^d(t), with u = h t
        self.bernstein = (co * np.diff(bp)[:, None] ** np.arange(d + 1) / _pascal(d)[d]) @ _pascal(d).T

    @classmethod
    def from_bernstein(cls, breakpoints, bernstein) -> "PiecewisePolynomial":
        self = cls.__new__(cls)
        self._set(breakpoints, bernstein)
        return self

    def _set(self, breakpoints, rows) -> tuple[np.ndarray, np.ndarray]:
        self.breakpoints = bp = np.asarray(breakpoints, dtype=float)
        self.bernstein = co = np.atleast_2d(np.asarray(rows, dtype=float))
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if co.shape[0] != bp.size - 1:
            raise ValueError("one coefficient row per interval required")
        return bp, co

    @property
    def npieces(self) -> int:
        return self.bernstein.shape[0]

    @property
    def degree(self) -> int:
        return self.bernstein.shape[1] - 1

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    # -- evaluation ----------------------------------------------------

    def _at(self, j: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
        """order-th derivative (rows d!/(d-k)! Delta^k c / h^k) of the pieces j at the points x."""
        d = self.degree
        if order > d:
            return np.zeros(x.shape)
        a, b = self.breakpoints[j], self.breakpoints[j + 1]
        h, scale = b - a, math.perm(d, order) * _pascal(d - order)[d - order]
        rows = np.diff(self.bernstein[j], order, axis=-1) / h[..., None] ** order * scale
        return _bernstein_sum(rows, (x - a) / h, (b - x) / h)

    def value(self, x, order: int = 0):
        """Evaluate the order-th derivative at x (scalar or array).

        Right-sided at breakpoints; the last endpoint is closed, so it
        takes the left limit there.
        """
        xs, bp = np.asarray(x, dtype=float), self.breakpoints
        flat = xs.ravel()
        j = np.clip(np.searchsorted(bp, flat, side="right") - 1, 0, self.npieces - 1)
        out = np.empty(flat.shape)
        for i in range(0, flat.size, 16384):  # blocks bound the (points, degree) temporaries
            out[i : i + 16384] = self._at(j[i : i + 16384], flat[i : i + 16384], order)
        out[(flat < bp[0]) | (flat > bp[-1])] = 0.0
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    def one_sided(self, x, order: int = 0):
        """Exact one-sided derivative values (left, right) at x (scalar or array).

        The zero function outside the support supplies the outer limits,
        so both entries vanish beyond [b_0, b_last].
        """
        bp, xs = self.breakpoints, np.asarray(x, dtype=float)
        j = np.clip(np.searchsorted(bp, xs, side="left") - 1, 0, self.npieces - 1)
        left = np.where((bp[0] < xs) & (xs <= bp[-1]), self._at(j, xs, order), 0.0)
        right = np.where((bp[0] <= xs) & (xs < bp[-1]), self.value(xs, order), 0.0)
        return (float(left), float(right)) if xs.ndim == 0 else (left, right)

    def derivative_value(self, x: float, order: int = 1) -> float:
        """Two-sided derivative away from breakpoints; right-sided at them
        (left-sided at the top of the support)."""
        return self.value(x, order)

    # -- calculus ------------------------------------------------------

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b] (clipped to the support).

        Each overlapped piece is subdivided onto its part of [a, b], whose
        integral is the width times the mean of the new coefficients.
        """
        sign = 1.0
        if b < a:
            a, b = b, a
            sign = -1.0
        bp = self.breakpoints
        a = max(a, bp[0])
        b = min(b, bp[-1])
        if b <= a:
            return 0.0
        j = np.arange(np.searchsorted(bp, a, side="right") - 1, np.searchsorted(bp, b, side="left"))
        start, end = bp[j], bp[j + 1]
        lo, hi = np.maximum(a, start), np.minimum(b, end)
        width = end - start
        # the part on [lo, end] is the reversed left part of the reversed row
        c = _left_part(self.bernstein[j, ::-1], (end - lo) / width, (lo - start) / width)[:, ::-1]
        c = _left_part(c, (hi - lo) / (end - lo), (end - hi) / (end - lo))
        return sign * float(np.sum((hi - lo) * np.mean(c, axis=-1)))

    def integral(self) -> float:
        return float(np.sum(np.diff(self.breakpoints) * np.mean(self.bernstein, axis=-1)))

    def scaled(self, factor: float) -> "PiecewisePolynomial":
        return PiecewisePolynomial.from_bernstein(self.breakpoints, self.bernstein * factor)

    def argmax(self, smallest: bool = True) -> tuple[float, float]:
        """Location and value of the maximum of a unimodal function.

        Only the log-concave density of states calls this: its derivative
        is positive, zero on a plateau (a constant piece), then negative,
        with the sign of the first nonzero Bernstein coefficient just right
        of b_j and of the last one just left of b_{j+1}.  The smallest
        maximizer is the first breakpoint where it stops being positive, or
        its root (beta = 0) in the first piece where it changes sign; the
        largest mirrors that, so a plateau resolves to its left or right end.
        """
        # the derivative's rows up to a positive factor (a zero column keeps
        # constants in), and the sign of their first and last nonzero entry
        dc = np.pad(np.diff(self.bernstein, axis=-1), ((0, 0), (0, 1)))
        rows = np.arange(self.npieces)
        first, last = (np.sign(r[rows, (r != 0.0).argmax(axis=1)]) for r in (dc, dc[:, ::-1]))
        cross = (first > 0.0) & (last < 0.0)
        edge = first <= 0.0 if smallest else last >= 0.0
        hits = np.nonzero(edge | cross)[0]
        bp = self.breakpoints
        j = int(hits[0] if smallest else hits[-1]) if hits.size else None
        if j is None:
            x = bp[-1] if smallest else bp[0]
        elif edge[j]:
            x = bp[j] if smallest else bp[j + 1]
        else:
            h, slope = bp[j + 1] - bp[j], lambda u: (self.value(bp[j] + u, 1), self.value(bp[j] + u, 2))
            x = bp[j] + decreasing_root(slope, 0.0, h, h)
        return float(x), self.value(x)

    # -- transforms ----------------------------------------------------

    def laplace(self, beta, moment=0):
        """integral of x^k * p(x) * exp(-beta*x) over the support, k = moment.

        beta is any real scalar or array: a scalar gives a float, an array
        an array of its shape.  moment is 0, 1 or 2, or a sequence of
        them, which stacks the moments on a trailing axis.  Each piece is
        written in t = (x - anchor)/h from the anchor b_j (beta >= 0) or
        b_{j+1} (beta < 0: the Bernstein row reversed), so the exponential
        decays; p, t p and t^2 p as rows two degrees up go through one
        ``_decay_moments`` table per sign.  The factors exp(-beta*anchor)
        are not rescaled: callers that need a reference shift
        (``_canonical_table``) shift the breakpoints first.
        """
        ks = np.atleast_1d(np.asarray(moment))
        if not np.isin(ks, (0, 1, 2)).all():
            raise ValueError("moment must be 0, 1 or 2")
        b = np.asarray(beta, dtype=float)
        flat = b.reshape(-1)
        neg = flat < 0.0
        bp = self.breakpoints
        h = np.diff(bp)
        moments = np.empty(flat.shape + (self.npieces, 3))
        for side, c in ((~neg, self.bernstein.T), (neg, self.bernstein.T[::-1])):
            if side.any():
                up, tp = degree_up(c, c), degree_up(0.0 * c, c)  # p and t p, one degree up
                rows = np.stack([degree_up(up, up), degree_up(tp, tp), degree_up(0.0 * tp, tp)], 1)
                moments[side] = _decay_moments(rows, h[:, None] * np.abs(flat[side]))
        s0, s1, s2 = (h ** (k + 1) * moments[..., k] for k in range(3))
        anchor = np.where(neg[:, None], bp[1:], bp[:-1])
        sign = np.where(neg, -1.0, 1.0)[:, None]
        with np.errstate(over="ignore"):
            w = np.exp(-flat[:, None] * anchor)
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
        polynomial, assembled by exact bivariate coefficient algebra on
        local monomials: the inputs are converted to them here, and the
        constructor converts the result back.
        """

        def monomials(p: PiecewisePolynomial) -> np.ndarray:
            # u^i coefficient = C(d, i) Delta^i c_0 / h^i
            d = p.degree
            diffs = np.stack([np.diff(p.bernstein, i, axis=-1)[:, 0] for i in range(d + 1)], axis=-1)
            return diffs * _pascal(d)[d] / np.diff(p.breakpoints)[:, None] ** np.arange(d + 1)

        fco, gco = monomials(self), monomials(other)
        bpf, bpg = self.breakpoints, other.breakpoints
        sums = np.sort(np.add.outer(bpf, bpg).ravel())
        span = (bpf[-1] - bpf[0]) + (bpg[-1] - bpg[0])
        merged = [sums[0]]
        for s in sums[1:]:
            if s - merged[-1] > 1e-12 * span:
                merged.append(s)
        out_bp = np.asarray(merged)
        degree = self.degree + other.degree + 1

        def along(table, u):  # coefficients of sum_a u^a table[a] for a polynomial u, by Horner
            out = np.zeros(1)
            for row in table[::-1]:
                out = npp.polymul(out, u)
                if row.size == 1:
                    out[0] += row[0]
                else:
                    out = npp.polyadd(out, row)
            return out

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
                    # p(u) q(w - u) as [u power, w power], and its antiderivative in u; q is the
                    # longer piece, so the powers of w in its expansion stay within twice its width
                    p, q, hp, hq = (fco[i], gco[j], hf, hg) if hg >= hf else (gco[j], fco[i], hg, hf)
                    take, factor = _expansion(q.size - 1)
                    full = np.stack([np.convolve(p, col) for col in (factor * q[take]).T], axis=1)
                    anti = np.vstack([np.zeros((1, q.size)), full / np.arange(1, full.shape[0] + 1)[:, None]])
                    # integration bounds as polynomials in w
                    u_hi = [hp] if w_m >= hp else [0.0, 1.0]
                    u_lo = [0.0] if w_m <= hq else [-hq, 1.0]
                    term = np.trim_zeros(npp.polysub(along(anti, u_hi), along(anti, u_lo)), "b")
                    # shift w = xi + (lo - s0) to the local variable xi
                    acc = npp.polyadd(acc, along(term[:, None], [lo - s0, 1.0]))
            out_co[k, : acc.size] = acc[: degree + 1]
        return PiecewisePolynomial(out_bp, out_co)

