"""Arbitrary-precision reference values for every quantity the benchmark checks.

Omega(E) of a spectrum is (pi^n/n!) times the normalized B-spline whose
knots are the eigenvalues repeated by multiplicity (n = dim - 1).  The
reference evaluates that B-spline by the Cox-de Boor recursion in mpmath,
which handles repeated knots and involves only convex combinations, so it
stays accurate over the whole support.  Everything else derives from it:

* Omega', Omega'' from the B-spline derivative formula (lower-degree
  B-splines of the same recursion table); S, T, C from their ratios;
* integrals of Omega from the integral identity for B-splines (one degree
  higher on the knot vector extended at the top);
* Z(beta) and U(beta): the Laplace transform of the oracle B-spline in
  closed form, Z = pi^n (-beta)^-n [t_0..t_n] exp(-beta x) (the
  Hermite-Genocchi/Peano identity), with confluent divided differences
  for repeated knots and precision raised until two evaluations agree;
* the n-fold composite density from Z_N = Z^N, inverted term by term
  into truncated powers and summed at high precision.

Nothing here imports qmce; spectra arrive as (energy, multiplicity) pairs.
"""

from __future__ import annotations

import itertools
import math

from mpmath import mp, mpf

DPS = 40  # working digits of the B-spline recursion (convex combinations)


def _agree(fn, start: int, rel: float = 1e-25):
    """fn(dps) at rising precision until two evaluations agree to rel."""
    dps = start
    prev = None
    for _ in range(8):
        with mp.workdps(dps):
            cur = fn()
        if prev is not None:
            with mp.workdps(dps):
                if all(abs(c - p) <= rel * max(abs(c), mpf(10) ** (-dps)) for c, p in zip(cur, prev)):
                    return cur
        prev = cur
        dps = int(dps * 1.6) + 10
    raise ArithmeticError("reference did not converge with rising precision")


def _table(t, x, top: int, keep: int):
    """Cox-de Boor table at x for the knot list t.

    Returns {k: {i: N_{i,k}(x)}} for k in top-keep+1..top, where
    N_{i,k} is the degree-k B-spline on t_i..t_{i+k+1}, right-continuous
    (half-open intervals), zero where the denominator vanishes.
    """
    last = len(t) - 1
    if not t[0] <= x < t[-1]:
        return {k: {} for k in range(top - keep + 1, top + 1)}
    span = max(j for j in range(last) if t[j] <= x < t[j + 1])
    level = {span: mpf(1)}
    out = {}
    for k in range(1, top + 1):
        nxt = {}
        for i in range(max(0, span - k), min(span, last - k - 1) + 1):
            v = mpf(0)
            a = level.get(i)
            if a:
                v += (x - t[i]) / (t[i + k] - t[i]) * a
            b = level.get(i + 1)
            if b:
                v += (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * b
            nxt[i] = v
        level = nxt
        if k > top - keep:
            out[k] = level
    if top - keep + 1 <= 0:
        out[0] = {span: mpf(1)}
    return out


class Dos:
    """Exact Omega, its derivatives and integrals for one spectrum."""

    def __init__(self, levels):
        self.levels = [(float(e), int(m)) for e, m in levels]
        with mp.workdps(DPS):
            self.t = [mpf(e) for e, m in self.levels for _ in range(m)]
            self.n = len(self.t) - 1
            self.d = self.n - 1
            self.width = self.t[-1] - self.t[0]
            self.scale = mp.pi ** self.n / mp.factorial(self.n - 1) / self.width
        self._mirror = None

    @property
    def mirror(self) -> "Dos":
        """The reflected spectrum E -> -E; gives left limits and upper tails."""
        if self._mirror is None:
            self._mirror = Dos([(-e, m) for e, m in reversed(self.levels)])
        return self._mirror

    def derivs(self, x, orders: int = 3, side: str = "right"):
        """[Omega, Omega', ...] at x, one-sided (right by default).

        At E_max the right limit is zero by convention, so the caller asks
        for side='left' there (as the program evaluates the closed end).
        """
        if side == "left":
            vals = self.mirror.derivs(-mpf(x), orders)
            return [v if k % 2 == 0 else -v for k, v in enumerate(vals)]
        with mp.workdps(DPS):
            x = mpf(x)
            d, t = self.d, self.t
            keep = min(orders, d + 1)
            tab = _table(t, x, d, keep)
            out = []
            for r in range(orders):
                if r > d:
                    out.append(mpf(0))
                    continue
                # N^{(r)}_{0,d} = d!/(d-r)! sum_i a_{r,i} N_{i,d-r}
                a = [mpf(1)]
                for k in range(1, r + 1):
                    nxt = []
                    for i in range(k + 1):
                        v = mpf(0)
                        if i < k and a[i]:
                            den = t[i + d - k + 1] - t[i]
                            if den:
                                v += a[i] / den
                        if i > 0 and a[i - 1]:
                            den = t[i + d - k + 1] - t[i]
                            if den:
                                v -= a[i - 1] / den
                        nxt.append(v)
                    a = nxt
                level = tab.get(d - r, {})
                total = sum((a[i] * level.get(i, 0) for i in range(r + 1)), mpf(0))
                out.append(self.scale * mp.factorial(d) / mp.factorial(d - r) * total)
            return out

    def omega(self, x, side: str = "right"):
        return self.derivs(x, 1, side)[0]

    def _lower(self, x):
        """integral of Omega over [E_min, x], for E_min <= x < E_max."""
        with mp.workdps(DPS):
            x = mpf(x)
            n = self.n
            u = self.t + [self.t[-1]] * (n + 1)
            tab = _table(u, x, n, 1)[n]
            return mp.pi ** n / mp.factorial(n) * sum((tab.get(i, 0) for i in range(n + 1)), mpf(0))

    def integral(self, a, b):
        """integral of Omega over [a, b] inside the support.

        Lower-half intervals difference the lower cumulative integral and
        upper-half ones the mirrored upper tail, so neither subtracts two
        nearly equal totals.
        """
        with mp.workdps(DPS):
            a, b = mpf(a), mpf(b)
            mid = (self.t[0] + self.t[-1]) / 2
            if b <= mid:
                return self._lower(b) - self._lower(a)
            m = self.mirror
            lo_tail = m._lower(-a) if -a < m.t[-1] else m.total
            hi_tail = m._lower(-b) if -b > m.t[0] else mpf(0)
            return lo_tail - hi_tail

    @property
    def total(self):
        with mp.workdps(DPS):
            return mp.pi ** self.n / mp.factorial(self.n)

    # -- canonical ensemble --------------------------------------------

    def _dd(self, beta, moment: int):
        """[t_0..t_n] of exp(-beta x) (moment 0) or x exp(-beta x) (moment 1)."""
        t = self.t
        b = mpf(beta)

        def f(x, k):
            e = mp.exp(-b * x) / mp.factorial(k)
            if moment == 0:
                return (-b) ** k * e
            return ((-b) ** k * x + (k * (-b) ** (k - 1) if k else 0)) * e

        tab = [f(x, 0) for x in t]
        n = len(t) - 1
        for k in range(1, n + 1):
            for i in range(n - k + 1):
                if t[i + k] == t[i]:
                    tab[i] = f(t[i], k)
                else:
                    tab[i] = (tab[i + 1] - tab[i]) / (t[i + k] - t[i])
        return tab[0]

    def canonical(self, beta):
        """(Z, U) at inverse temperature beta != 0, exactly."""
        n = self.n
        # the divided differences cancel about n*log10(1/(beta*gap)) digits
        loss = n * max(0.0, math.log10(1.0 / max(abs(float(beta)) * self._min_gap(), 1e-300)))

        def run():
            b = mpf(beta)
            z0 = self._dd(b, 0)
            z1 = self._dd(b, 1)
            return [mp.pi ** n * (-b) ** (-n) * z0, n / b + z1 / z0]

        return tuple(_agree(run, 30 + min(int(loss), 400)))

    def _min_gap(self) -> float:
        es = [e for e, _ in self.levels]
        return min(b - a for a, b in zip(es, es[1:]))

    def mean_energy(self, beta):
        return self.canonical(beta)[1]


class Composite:
    """Density of N independent copies of a nondegenerate spectrum.

    Z_N = Z^N with Z = pi^n (-beta)^-n sum_k w_k exp(-beta E_k),
    w_k = 1/prod_{l != k}(E_k - E_l); expanding the power and inverting
    each exp(-beta s) (-beta)^-m term gives truncated powers
    (x - s)_+^{m-1}/(m-1)!, summed at rising precision.
    """

    def __init__(self, levels, copies: int):
        if any(m != 1 for _, m in levels):
            raise ValueError("composite reference needs a nondegenerate spectrum")
        self.base = Dos(levels)
        self.es = [float(e) for e, _ in levels]
        self.copies = int(copies)
        self.n = len(self.es) - 1
        self.m = self.n * self.copies
        self.terms = []
        k = len(self.es)
        for parts in _compositions(self.copies, k):
            coef = math.factorial(self.copies)
            for a in parts:
                coef //= math.factorial(a)
            self.terms.append((coef, parts))

    def derivs(self, x):
        """[Omega_N, Omega_N'] at total energy x."""

        def run():
            es = [mpf(e) for e in self.es]
            w = []
            for k, ek in enumerate(es):
                p = mpf(1)
                for l, el in enumerate(es):
                    if l != k:
                        p *= ek - el
                w.append(1 / p)
            xx = mpf(x)
            m = self.m
            v0 = v1 = mpf(0)
            for coef, parts in self.terms:
                s = sum((a * e for a, e in zip(parts, es)), mpf(0))
                if xx <= s:
                    continue
                c = coef
                for a, wk in zip(parts, w):
                    c *= wk**a
                v0 += c * (xx - s) ** (m - 1)
                v1 += c * (xx - s) ** (m - 2)
            sign = (-1) ** m * mp.pi ** m
            return [sign * v0 / mp.factorial(m - 1), sign * v1 / mp.factorial(m - 2)]

        return _agree(run, 60)

    def beta_canonical(self, e):
        """beta with U_1(beta) = e (so U_N = N e), by bisection."""
        return solve_beta(self.base, e)


def solve_beta(dos: Dos, e, rel: float = 1e-24):
    """The beta at which the canonical mean energy of dos equals e."""
    e = mpf(e)
    w = float(dos.width)
    lo, hi = -1.0 / w, 1.0 / w
    while dos.mean_energy(hi) > e:
        lo, hi = hi, hi * 2
    while dos.mean_energy(lo) < e:
        lo, hi = lo * 2, lo
    lo, hi = mpf(lo), mpf(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid == 0:
            mid = mpf(1e-30) / w
        if dos.mean_energy(mid) > e:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel * max(abs(lo), abs(hi), mpf(1) / w):
            break
    return (lo + hi) / 2


def _compositions(total: int, parts: int):
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut + (total + parts - 1,):
            out.append(c - prev - 1)
            prev = c
        yield tuple(out)
