"""Output checkers: every checked value is compared with the mpmath oracle.

A checker sees a finished job (exit code, stdout text) and returns a Tally:
how many output values it checked, how many were wrong, and whether the
output had the documented shape.  It draws the rows it checks uniformly
at random (seeded by the job), so wrong_frac estimates the share of all
printed values that are wrong.  Per-column rules, all at RTOL = 1e-9 and
each derived by first-order error propagation from perturbations of
Omega, Omega', Omega'' on the scales |Omega|, |Omega'| + |Omega|/W,
|Omega''| + |Omega'|/W + |Omega|/W^2 (W the spectral width), so that a
quantity passing through zero is not asked for infinite relative accuracy:

* Omega (dos, grand marginal, mc-verify Omega_exact): relative, |x - x*| <= RTOL |x*|
  (an exact zero must print as zero);
* S = ln Omega: absolute, |S - S*| <= RTOL;
* T: compared through beta = 1/T (T = inf reads as beta = 0, as at the
  mode where T diverges), |beta - beta*| <= RTOL (2|beta*| + 1/W);
* C = Omega'^2/(Omega'^2 - Omega Omega''): propagated bound;
* critical points: one row per interior level, order N-1-m for a level of
  multiplicity m in dimension N, T_c through beta as above;
* grand (p, q) grid: pi^2 strictly inside the simplex and 0 outside or on
  the p = 0 / q = 0 edges; rows on the diagonal p + q = 1 are a
  measure-zero convention decided by rounding and are not sampled;
* Z: relative (0 or inf printed for a Z outside double range is wrong);
  U: |U - U*| <= RTOL W + 8 eps |U*| (shifting the spectrum must not
  cost more than rounding the shift);
* beta_canonical, beta_micro of n-fold composites: the beta rule on the
  composite width; the gap by propagation from both;
* equilibrate: epsilon through the residual beta1 - beta2 at the printed
  optimum, T1/T2 through beta, S_total absolute RTOL (N1 + N2), and no
  boundary flag (the optimum is interior for dims >= 4);
* mc-verify: the fraction line equals the share of printed |z| <= 4 and
  is at least 0.99, and the exit code is 0 exactly when it is.
"""

from __future__ import annotations

import io
import math
import random

from mpmath import mp, mpf

import oracle

RTOL = 1e-9
EPS = 2.0**-52
ROWS = {"dos": 12, "thermo": 12, "criticals": 6, "grand": 32, "marginal": 12, "canonical": 12, "mc_verify": 8}


class Tally:
    """Values checked and wrong for one job, plus a shape verdict."""

    def __init__(self):
        self.checked = 0
        self.wrong = 0
        self.malformed = ""
        self.unjudged = ""
        self.notes: list[str] = []

    def value(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.wrong += 1
            if len(self.notes) < 4:
                self.notes.append(what)

    def shape(self, ok: bool, what: str) -> bool:
        if not ok and not self.malformed:
            self.malformed = what
        return ok


def _num(text: str) -> mpf:
    return mpf(float(text))


def _close(x, ref, tol) -> bool:
    # NaN compares false, so it is wrong wherever a number is due
    return bool(abs(x - ref) <= tol)


def _beta_ok(t_printed, beta_ref, width) -> bool:
    t = float(t_printed)
    if math.isnan(t):
        return False
    beta = mpf(0) if math.isinf(t) else 1 / mpf(t)
    return _close(beta, beta_ref, RTOL * (2 * abs(beta_ref) + 1 / mpf(width)))


def _c_ok(c_printed, w, a, b, width) -> bool:
    c = _num(c_printed)
    den = a * a - w * b
    if den == 0:
        return False
    ref = a * a / den
    s1 = abs(a) + abs(w) / width
    s2 = abs(b) + abs(a) / width + abs(w) / width**2
    tol = RTOL * (abs(a * a * b) * abs(w) + 2 * abs(a * w * b) * s1 + a * a * abs(w) * s2) / den**2
    return _close(c, ref, tol)


def _lines(out: str) -> list[str]:
    return out.split("\n")[:-1] if out.endswith("\n") else out.split("\n")


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    return sorted(rng.sample(range(n), min(k, n)))


def _width(levels) -> float:
    return levels[-1][0] - levels[0][0]


def _flag(job, name: str, default: int) -> int:
    """Integer CLI flag of the job (grid or bin count), else its default."""
    argv = list(job.argv)
    return int(float(argv[argv.index(name) + 1])) if name in argv else default


def _omega_ref(dos: oracle.Dos, e: float):
    # the program closes the support at E_max; the oracle's right limit is 0 there
    return dos.omega(e, side="left" if e >= dos.levels[-1][0] else "right")


def check_dos(job, rc, out, t: Tally, rng) -> None:
    lines = _lines(out)
    if not t.shape(lines[:1] == ["E,Omega"] and len(lines) > _flag(job, "--grid", 1000), "dos header/rows"):
        return
    dos = oracle.Dos(job.levels)
    rows = lines[1:]
    for i in _sample(rng, len(rows), ROWS["dos"]):
        e, om = rows[i].split(",")
        ref = _omega_ref(dos, float(e))
        t.value(_close(_num(om), ref, RTOL * abs(ref)), f"Omega({e})={om}")


def check_thermo(job, rc, out, t: Tally, rng) -> None:
    lines = _lines(out)
    if not t.shape(lines[:1] == ["E,S,T,C"] and "# criticals" in lines, "thermo header"):
        return
    cut = lines.index("# criticals")
    rows, crit = lines[1:cut], lines[cut + 1 :]
    if not t.shape(len(rows) == _flag(job, "--grid", 1000) and crit[:1] == ["E_c,T_c,order"], "thermo rows"):
        return
    dos = oracle.Dos(job.levels)
    width = mpf(_width(job.levels))
    for i in _sample(rng, len(rows), ROWS["thermo"]):
        e, s, temp, c = rows[i].split(",")
        w, a, b = dos.derivs(float(e))
        t.value(_close(_num(s), mp.log(w), RTOL), f"S({e})={s}")
        t.value(_beta_ok(temp, a / w, width), f"T({e})={temp}")
        t.value(_c_ok(c, w, a, b, width), f"C({e})={c}")
    _check_criticals(job, crit[1:], dos, width, t, rng)


def _check_criticals(job, rows, dos, width, t: Tally, rng) -> None:
    dim = sum(m for _, m in job.levels)
    printed = [r.split(",") for r in rows]
    expected = job.levels[1:-1]
    sampled = set(_sample(rng, len(expected), ROWS["criticals"]))
    used = set()
    for k, (e, m) in enumerate(expected):
        hit = [j for j, p in enumerate(printed) if abs(float(p[0]) - e) <= 1e-12 * float(width)]
        if not hit:
            t.value(False, f"critical at {e!r} missing")
            continue
        used.update(hit)
        ec, tc, order = printed[hit[0]]
        t.value(order == str(dim - 1 - m), f"critical order at {e!r}: {order} != {dim - 1 - m}")
        if k in sampled:
            w, a = dos.derivs(e, 2)
            t.value(_beta_ok(tc, a / w, width), f"T_c({e!r})={tc}")
    for j in range(len(printed)):
        if j not in used:
            t.value(False, f"spurious critical {printed[j][0]}")


def check_grand(job, rc, out, t: Tally, rng) -> None:
    grid = _flag(job, "--grid", 1000)
    n = grid * grid
    want = set(_sample(rng, n, ROWS["grand"] * 2))
    stream = io.StringIO(out)
    if not t.shape(stream.readline() == "p,q,Omega\n", "grand header"):
        return
    picked = []
    count = 0
    for line in stream:
        if line.startswith("#"):
            break
        if count in want:
            picked.append(line.rstrip("\n"))
        count += 1
    else:
        line = ""
    if not t.shape(count == n and line == "# marginal\n", "grand rows"):
        return
    marginal = [r.rstrip("\n") for r in stream]
    if not t.shape(marginal[:1] == ["E,Omega"] and len(marginal) > grid, "grand marginal"):
        return
    pi2 = mp.pi**2
    checked = 0
    for row in picked:
        p, q, om = (float(x) for x in row.split(","))
        if p > 0 and q > 0 and abs(p + q - 1.0) <= 1e-12:
            continue  # diagonal: rounding decides the step convention
        if checked == ROWS["grand"]:
            break
        checked += 1
        ref = pi2 if (p > 0 and q > 0 and p + q < 1.0) else mpf(0)
        t.value(_close(mpf(om), ref, RTOL * pi2), f"grand({p},{q})={om}")
    dos = oracle.Dos(job.levels)
    rows = marginal[1:]
    for i in _sample(rng, len(rows), ROWS["marginal"]):
        e, om = rows[i].split(",")
        ref = _omega_ref(dos, float(e))
        t.value(_close(_num(om), ref, RTOL * abs(ref)), f"marginal({e})={om}")


def check_canonical(job, rc, out, t: Tally, rng) -> None:
    lines = _lines(out)
    if not t.shape(lines[:1] == ["beta,Z,U"] and len(lines) == 1 + _flag(job, "--grid", 1000), "canonical rows"):
        return
    dos = oracle.Dos(job.levels)
    width = mpf(_width(job.levels))
    rows = lines[1:]
    for i in _sample(rng, len(rows), ROWS["canonical"]):
        b, z, u = rows[i].split(",")
        z_ref, u_ref = dos.canonical(float(b))
        t.value(_close(_num(z), z_ref, RTOL * z_ref), f"Z({b})={z}")
        t.value(_close(_num(u), u_ref, RTOL * width + 8 * EPS * abs(u_ref)), f"U({b})={u}")


def check_nfold(job, rc, out, t: Tally, rng) -> None:
    lines = _lines(out)
    if not t.shape(len(lines) == 2 and lines[0] == "beta_canonical,beta_micro,gap", "nfold output"):
        return
    bc, bm, gap = (_num(x) for x in lines[1].split(","))
    n = job.params["copies"]
    comp = oracle.Composite(job.levels, n)
    w, a = comp.derivs(n * job.params["energy"])
    bm_ref = a / w
    bc_ref = comp.beta_canonical(job.params["energy"])
    inv_w = 1 / (n * mpf(_width(job.levels)))
    tol_c = RTOL * (2 * abs(bc_ref) + inv_w)
    tol_m = RTOL * (2 * abs(bm_ref) + inv_w)
    t.value(_close(bc, bc_ref, tol_c), f"beta_canonical={bc}")
    t.value(_close(bm, bm_ref, tol_m), f"beta_micro={bm}")
    gap_ref = abs(bc_ref - bm_ref) / abs(bc_ref)
    tol_g = tol_c * (1 + gap_ref) / abs(bc_ref) + tol_m / abs(bc_ref)
    t.value(_close(gap, gap_ref, tol_g), f"gap={gap}")


def check_equilibrate(job, rc, out, t: Tally, rng) -> None:
    lines = _lines(out)
    if not t.shape(lines[:1] == ["epsilon,T1,T2,S_total"] and len(lines) in (2, 3), "equilibrate output"):
        return
    p = job.params
    eps, t1, t2, s_tot = lines[1].split(",")
    d1, d2 = oracle.Dos(job.levels), oracle.Dos(p["levels2"])
    w1s, w2s = mpf(_width(job.levels)), mpf(_width(p["levels2"]))
    ep = _num(eps)
    x1 = mpf(p["E1"]) + ep / p["N1"]
    x2 = mpf(p["E2"]) - ep / p["N2"]
    f1, f2 = d1.derivs(x1), d2.derivs(x2)
    if f1[0] <= 0 or f2[0] <= 0:
        t.value(False, f"epsilon={eps} outside the feasible interval")
        return
    b1, b2 = f1[1] / f1[0], f2[1] / f2[0]
    slope = (f1[2] * f1[0] - f1[1] ** 2) / f1[0] ** 2 / p["N1"] + (f2[2] * f2[0] - f2[1] ** 2) / f2[0] ** 2 / p["N2"]
    span = max(abs(ep), w1s * p["N1"], w2s * p["N2"])
    tol_b1 = RTOL * (2 * abs(b1) + 1 / w1s)
    tol_b2 = RTOL * (2 * abs(b2) + 1 / w2s)
    tol = tol_b1 + tol_b2 + abs(slope) * 8 * EPS * span
    t.value(_close(b1 - b2, 0, tol), f"epsilon={eps}: beta1-beta2={float(b1 - b2):.3g}")
    t.value(_beta_ok(t1, b1, w1s), f"T1={t1}")
    t.value(_beta_ok(t2, b2, w2s), f"T2={t2}")
    s_ref = p["N1"] * mp.log(f1[0]) + p["N2"] * mp.log(f2[0])
    t.value(_close(_num(s_tot), s_ref, RTOL * (p["N1"] + p["N2"])), f"S_total={s_tot}")
    t.value(len(lines) == 2, "boundary flag on an interior optimum")


def check_mc_verify(job, rc, out, t: Tally, rng) -> None:
    lines = _lines(out)
    header = "E_lo,E_hi,Omega_hat,stderr,Omega_exact,z"
    ok = lines[:1] == [header] and len(lines) == 2 + _flag(job, "--bins", 512) and lines[-1].startswith("# fraction_within_4sigma,")
    if not t.shape(ok, "mc-verify rows"):
        return
    rows = [r.split(",") for r in lines[1:-1]]
    frac = float(lines[-1].split(",")[1])
    inside = sum(abs(float(r[5])) <= 4.0 for r in rows) / len(rows)
    t.value(frac == inside and frac >= 0.99, f"fraction_within_4sigma={frac} (columns give {inside})")
    dos = oracle.Dos(job.levels)
    for i in _sample(rng, len(rows), ROWS["mc_verify"]):
        lo, hi, ex = rows[i][0], rows[i][1], rows[i][4]
        ref = dos.integral(float(lo), float(hi)) / (_num(hi) - _num(lo))
        t.value(_close(_num(ex), ref, RTOL * abs(ref)), f"Omega_exact[{lo},{hi}]={ex}")


def expected_exit(job, out: str) -> set[int]:
    """Exit codes the documented contract allows for this valid request."""
    if job.check == "mc_verify" and out:
        last = _lines(out)[-1]
        if last.startswith("# fraction_within_4sigma,"):
            return {0} if float(last.split(",")[1]) >= 0.99 else {3}
    return {0}


CHECKS = {
    "dos": check_dos,
    "thermo": check_thermo,
    "grand": check_grand,
    "canonical": check_canonical,
    "nfold": check_nfold,
    "equilibrate": check_equilibrate,
    "mc_verify": check_mc_verify,
}


def check(job, rc, out: str, seed: int) -> Tally:
    """Judge one job that exited with a contract code."""
    t = Tally()
    rng = random.Random(f"check/{seed}/{job.id}")
    try:
        with mp.workdps(oracle.DPS):
            CHECKS[job.check](job, rc, out, t, rng)
    except (ValueError, IndexError) as exc:  # unparsable fields
        t.shape(False, f"{type(exc).__name__}: {exc}")
    except ArithmeticError as exc:  # the reference itself failed: judge nothing
        t.checked = t.wrong = 0
        t.unjudged = f"{type(exc).__name__}: {exc}"
    return t
