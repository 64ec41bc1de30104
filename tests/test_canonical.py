import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_nondegenerate
from qmce import (
    InvalidInputError,
    IsingChainSpec,
    NoSolutionError,
    beta_temperature_consistency,
    build_dos,
    canonical_eval,
    eval_dos,
    ising_spectrum,
    make_spectrum,
    nfold_dos,
    partition_closed,
    partition_stable,
    solve_thermal_energy,
    thermal_energy,
)
from qmce.canonical import _partition_eq9_literal
from qmce.canonical import _canonical_table

S2 = make_spectrum([0.0, 1.0])
S3 = make_spectrum([0.0, 1.0, 2.0])
D3 = build_dos(S3)

# inverse temperature at which the three-level mean energy equals 0.5
# (root of the closed form below, frozen from an independent quadrature
# + brentq solve)
BETA_C_HALF = 3.593511969447426


def tent_z(beta):
    # three-level ladder: Omega is pi^2/2 times two convolved unit boxes
    return math.pi**2 / 2.0 * ((1.0 - math.exp(-beta)) / beta) ** 2


def tent_u(beta):
    return 2.0 * (1.0 / beta - math.exp(-beta) / (1.0 - math.exp(-beta)))


def quad_transform(d, beta, moment=0):
    # adaptive quadrature over each smooth piece; independent of the
    # analytic per-piece transform under test
    bp = d.poly.breakpoints
    total = 0.0
    for j in range(bp.size - 1):
        total += quad(
            lambda e: e**moment * eval_dos(d, e) * math.exp(-beta * e),
            bp[j],
            bp[j + 1],
            epsabs=1e-13,
            epsrel=1e-12,
        )[0]
    return total


# -- partition function paths -------------------------------------------


def test_two_level_closed_form():
    assert partition_closed(S2, 1.0) == pytest.approx(
        math.pi * (1.0 - math.exp(-1.0)), rel=1e-14
    )
    for beta in (1.0, 2.5, 7.0):
        exact = math.pi * (1.0 - math.exp(-beta)) / beta
        assert partition_closed(S2, beta) == pytest.approx(exact, rel=1e-13)
        assert partition_stable(build_dos(S2), beta) == pytest.approx(exact, rel=1e-13)


def test_three_level_analytic():
    for beta in (0.5, 1.0, 2.0, 5.0, 20.0):
        assert partition_stable(D3, beta) == pytest.approx(tent_z(beta), rel=1e-12)
        if beta * 2.0 >= 1.0:
            assert partition_closed(S3, beta) == pytest.approx(tent_z(beta), rel=1e-10)


def test_literal_matches_stable(rng):
    # nondegenerate, gaps >= 0.1: the public closed form agrees with the
    # stable transform to ten digits across the whole beta range (its
    # conditioning guard reroutes the ill-conditioned corner); the raw
    # literal sum is held to the same bar wherever beta*width >= 2
    for dim in range(2, 9):
        es = random_nondegenerate(rng, dim, min_gap=0.1)
        s = make_spectrum(es)
        d = build_dos(s)
        for beta in np.geomspace(0.5, 20.0, 7):
            stab = partition_stable(d, beta)
            assert partition_closed(s, beta) == pytest.approx(stab, rel=1e-10)
            if beta * s.width >= 2.0:
                assert _partition_eq9_literal(s, beta) == pytest.approx(stab, rel=1e-10)


def test_closed_form_fallback_threshold():
    # below beta*width = 1 the closed form silently reroutes to the
    # stable path; above it the literal sum is returned verbatim
    assert partition_closed(S3, 0.4) == partition_stable(D3, 0.4)
    assert partition_closed(S3, 0.5) == _partition_eq9_literal(S3, 0.5)
    assert partition_closed(S3, 0.4) == pytest.approx(tent_z(0.4), rel=1e-12)


def test_partition_validation():
    ising = ising_spectrum(IsingChainSpec(spins=3, coupling=0.25, field=1.0))
    with pytest.raises(InvalidInputError):
        partition_closed(ising, 1.0)  # degenerate levels
    for beta in (0.0, -1.0):
        with pytest.raises(InvalidInputError):
            partition_closed(S3, beta)
        with pytest.raises(InvalidInputError):
            partition_stable(D3, beta)
        with pytest.raises(InvalidInputError):
            thermal_energy(D3, beta)
        with pytest.raises(InvalidInputError):
            canonical_eval(S3, beta)


def test_stable_small_beta_limit(battery_spectrum):
    # Z(beta -> 0) -> total phase-space volume pi^n/n!.  At finite beta
    # the deviation is beta*<E> to first order, so the clean 1e-8 check
    # runs on the centered spectrum; the uncentered one is tested after
    # peeling the tilt off analytically.
    s = battery_spectrum
    n = s.dim - 1
    beta = 1e-6 / s.width
    volume = math.pi**n / math.factorial(n)
    mean = float(s.knots.mean())  # multiplicity-weighted: knots repeat per level
    centered = make_spectrum([(e - mean, int(m)) for e, m in zip(s.energies, s.multiplicities)])
    assert partition_stable(build_dos(centered), beta) == pytest.approx(volume, rel=1e-8)
    tilted = partition_stable(build_dos(s), beta) * math.exp(beta * mean)
    assert tilted == pytest.approx(volume, rel=1e-8)


def test_z_decreasing_and_log_convex():
    ising = build_dos(ising_spectrum(IsingChainSpec(spins=3, coupling=0.25, field=1.0)))
    betas = np.linspace(0.2, 10.0, 30)
    for d in (D3, ising):
        logz = np.array([math.log(partition_stable(d, b)) for b in betas])
        # d^2 ln Z / d beta^2 = Var(E) >= 0
        second = np.diff(logz, 2)
        assert np.all(second > -1e-9 * np.maximum(np.abs(logz[1:-1]), 1.0))
    # for a spectrum with positive energies Z itself strictly decreases
    logz = np.array([math.log(partition_stable(D3, b)) for b in betas])
    assert np.all(np.diff(logz) < 0.0)


def test_quadrature_cross_check_degenerate():
    ising = build_dos(ising_spectrum(IsingChainSpec(spins=3, coupling=0.25, field=1.0)))
    z = partition_stable(ising, 1.0)
    u = thermal_energy(ising, 1.0)
    assert z == pytest.approx(quad_transform(ising, 1.0), rel=1e-8)
    assert u == pytest.approx(quad_transform(ising, 1.0, 1) / quad_transform(ising, 1.0), rel=1e-8)


def test_large_beta_asymptotics(rng):
    # Z ~ pi^n/prod(E_l - E_1) * exp(-beta*E_1)/beta^n once exp(-beta*gap)
    # is below rounding
    assert partition_stable(D3, 40.0) * 40.0**2 == pytest.approx(
        math.pi**2 / 2.0, rel=1e-12
    )
    es = random_nondegenerate(rng, 4, lo=0.0, hi=2.0, min_gap=0.1)
    d = build_dos(make_spectrum(es))
    beta = 300.0
    lead = math.pi**3 / np.prod(es[1:] - es[0])
    assert partition_stable(d, beta) * beta**3 * math.exp(beta * es[0]) == pytest.approx(
        lead, rel=1e-10
    )


# -- thermal energy ------------------------------------------------------


def test_thermal_energy_values():
    assert thermal_energy(D3, 2.0) == pytest.approx(tent_u(2.0), rel=1e-12)
    assert thermal_energy(D3, 1e-9) == pytest.approx(1.0, abs=1e-6)
    u_cold = thermal_energy(D3, 50.0)
    assert 0.0 < u_cold < 0.05


def test_thermal_energy_decreasing(battery_spectrum):
    d = build_dos(battery_spectrum)
    betas = np.geomspace(0.1, 30.0, 12)
    us = np.array([thermal_energy(d, b) for b in betas])
    assert np.all(np.diff(us) < 0.0)
    assert np.all((us > d.e_min) & (us < d.e_max))


# -- canonical_eval ------------------------------------------------------


def test_canonical_eval_method_tag():
    row = canonical_eval(S3, 1.0)  # beta*width = 2 >= 1
    assert row.method == "closed-form"
    assert row.beta == 1.0
    assert row.Z == pytest.approx(tent_z(1.0), rel=1e-12)
    assert row.U == pytest.approx(tent_u(1.0), rel=1e-12)

    assert canonical_eval(S3, 0.3).method == "quadrature"
    ising = ising_spectrum(IsingChainSpec(spins=3, coupling=0.25, field=1.0))
    assert canonical_eval(ising, 1.0).method == "quadrature"
    # a prebuilt dos carries no level list, so the literal sum is unavailable
    assert canonical_eval(D3, 1.0).method == "quadrature"
    assert canonical_eval(D3, 1.0).Z == pytest.approx(tent_z(1.0), rel=1e-12)


def test_canonical_eval_bounds(battery_spectrum):
    for beta in (0.2, 1.0, 5.0):
        row = canonical_eval(battery_spectrum, beta)
        assert battery_spectrum.e_min < row.U < battery_spectrum.e_max
        assert row.Z > 0.0


# -- inverse-temperature consistency -------------------------------------


def test_consistency_three_level():
    bc, bm, gap = beta_temperature_consistency(D3, 0.5)
    assert bm == pytest.approx(2.0, rel=1e-12)
    assert bc == pytest.approx(BETA_C_HALF, rel=1e-10)
    assert gap == pytest.approx((BETA_C_HALF - 2.0) / BETA_C_HALF, rel=1e-9)


def test_consistency_negative_beta():
    # above the symmetric tent's mean the canonical solution is negative,
    # mirroring the E = 0.5 case
    bc, bm, gap = beta_temperature_consistency(D3, 1.5)
    assert bm == pytest.approx(-2.0, rel=1e-12)
    assert bc == pytest.approx(-BETA_C_HALF, rel=1e-10)
    assert gap == pytest.approx((BETA_C_HALF - 2.0) / BETA_C_HALF, rel=1e-9)


def test_consistency_two_level_flat():
    d2 = build_dos(S2)
    with pytest.raises(NoSolutionError):
        beta_temperature_consistency(d2, 0.5)
    with pytest.raises(NoSolutionError):
        beta_temperature_consistency(d2, 0.25)


def test_consistency_at_mean():
    # exactly at the beta = 0 mean energy: beta_canonical is 0 and the
    # relative gap degenerates to infinity
    d = build_dos(make_spectrum([0.0, 0.3, 1.0]))
    u0 = d.poly.laplace(0.0, 1) / d.poly.laplace(0.0, 0)
    assert solve_thermal_energy(d, u0) == 0.0
    bc, bm, gap = beta_temperature_consistency(d, u0)
    assert bc == 0.0 and bm != 0.0
    assert math.isinf(gap)


def test_solver_validation():
    for bad in (-0.1, 0.0, 2.0, 2.5):
        with pytest.raises(InvalidInputError):
            solve_thermal_energy(D3, bad)
    with pytest.raises(InvalidInputError):
        beta_temperature_consistency(D3, 2.0)


def test_solver_roundtrip(rng):
    for dim in (3, 5, 8):
        d = build_dos(make_spectrum(random_nondegenerate(rng, dim, min_gap=0.1)))
        for f in (0.2, 0.45, 0.8):
            e = d.e_min + f * (d.e_max - d.e_min)
            beta = solve_thermal_energy(d, e)
            if beta > 0.0:
                assert thermal_energy(d, beta) == pytest.approx(e, abs=1e-11 * (d.e_max - d.e_min))
            else:
                u = d.poly.laplace(beta, 1) / d.poly.laplace(beta, 0)
                assert u == pytest.approx(e, abs=1e-11 * (d.e_max - d.e_min))


@pytest.mark.parametrize("c", [2.0**10, -(2.0**10), 2.0**20, -(2.0**20)])
def test_shift_invariance(c):
    # dyadic levels, so E + c is exact: shifting the spectrum by c shifts U
    # by c, log Z by -beta*c, and leaves the solved beta unchanged.  The
    # shifted U and log Z are doubles of magnitude ~|c| and ~|beta*c|, so
    # their tolerances carry one rounding at that magnitude: ulp(c) for U
    # (2.3e-10 at 2^20, above 1e-12*W) and |log Z(E+c)| for log Z.
    es = [0.0, 0.25, 0.5, 1.5, 2.0]
    width = 2.0
    d0 = build_dos(make_spectrum(es))
    dc = build_dos(make_spectrum([e + c for e in es]))
    betas = np.array([-60.0, -4.0, -0.5, -0.01, 0.0, 0.01, 0.5, 4.0, 60.0, 300.0]) / width
    t0, tc = _canonical_table(d0, betas), _canonical_table(dc, betas)
    assert np.all(np.abs((tc.U - c) - t0.U) <= 1e-12 * width + math.ulp(c))
    assert np.all(np.abs((tc.log_Z + betas * c) - t0.log_Z) <= 1e-12 * (1.0 + np.abs(tc.log_Z)))
    for target in (0.125, 0.375, 0.8125, 1.25, 1.875):
        beta = solve_thermal_energy(d0, target)
        assert solve_thermal_energy(dc, target + c) == pytest.approx(beta, rel=1e-10)


# -- n-fold composition ---------------------------------------------------


def test_nfold_two_level_conv():
    # two independent two-level systems: box * box = pi^2 * tent
    p = nfold_dos(build_dos(S2), 2)
    for e in (0.25, 0.5, 1.0, 1.6):
        assert p.value(e) == pytest.approx(math.pi**2 * min(e, 2.0 - e), rel=1e-12)
    assert p.integral() == pytest.approx(math.pi**2, rel=1e-12)


def test_nfold_validation():
    with pytest.raises(InvalidInputError):
        nfold_dos(D3, 0)
    with pytest.raises(InvalidInputError):
        nfold_dos(D3, 1.5)
    assert nfold_dos(D3, 1) is D3.poly
    assert nfold_dos(D3, 4).integral() == pytest.approx((math.pi**2 / 2.0) ** 4, rel=1e-12)


def test_nfold_gap_shrinks():
    # composing copies drives the microcanonical inverse temperature
    # toward the (n-independent) canonical one; frozen gap values from an
    # FFT-convolution + finite-difference oracle
    oracle = {1: 0.44344139, 2: 0.1651620878, 4: 0.09095426937, 8: 0.04578080476}
    gaps = {}
    for n in (1, 2, 4, 8):
        poly = nfold_dos(D3, n)
        bc, bm, gap = beta_temperature_consistency(poly, 0.5 * n)
        # Z_n = Z^n, so the canonical solution is the single-system one
        assert bc == pytest.approx(BETA_C_HALF, rel=1e-9)
        assert gap == pytest.approx(oracle[n], rel=1e-6)
        gaps[n] = gap
    assert gaps[1] > gaps[2] > gaps[4] > gaps[8]
    bc, bm, _ = beta_temperature_consistency(nfold_dos(D3, 2), 1.0)
    assert bm == pytest.approx(3.0, rel=1e-10)
