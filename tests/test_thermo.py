import math

import numpy as np
import pytest

from qmce import (
    InvalidInputError,
    IsingChainSpec,
    NoSolutionError,
    build_dos,
    critical_points,
    energy_of_temperature,
    equilibrate,
    eval_dos,
    ising_spectrum,
    make_spectrum,
    specific_heat_at_E,
    temperature,
    thermo_curve,
)

D2 = build_dos(make_spectrum([0.0, 1.0]))
D3 = build_dos(make_spectrum([0.0, 1.0, 2.0]))
D4 = build_dos(make_spectrum([0.0, 1.0, 2.0, 3.0]))


def test_temperature_closed_forms():
    # first interval of the ladder is a pure power: T = u/(dim-2)
    assert temperature(D4, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert temperature(D3, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert temperature(D4, 0.3) == pytest.approx(0.15, rel=1e-12)
    assert temperature(D2, 0.7) == math.inf
    assert temperature(D4, 2.5) < 0.0


def test_temperature_guards():
    with pytest.raises(InvalidInputError):
        temperature(D4, 0.0)
    with pytest.raises(InvalidInputError):
        temperature(D4, 3.5)
    with pytest.raises(InvalidInputError):
        temperature(D4, 1.0, side="middle")
    # tent: Omega' jumps at the middle knot, a side must be chosen
    with pytest.raises(InvalidInputError):
        temperature(D3, 1.0)
    assert temperature(D3, 1.0, side="left") == pytest.approx(1.0, rel=1e-12)
    assert temperature(D3, 1.0, side="right") == pytest.approx(-1.0, rel=1e-12)


def test_specific_heat_values():
    assert specific_heat_at_E(D3, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert specific_heat_at_E(D4, 0.5) == pytest.approx(2.0, rel=1e-12)
    assert specific_heat_at_E(D4, 1.0, side="left") == pytest.approx(2.0, rel=1e-12)
    assert specific_heat_at_E(D4, 1.0, side="right") == pytest.approx(0.5, rel=1e-12)
    assert specific_heat_at_E(D2, 0.3) == 0.0


def test_energy_of_temperature_examples():
    assert energy_of_temperature(D4, 0.5) == pytest.approx(1.0, abs=1e-9)
    assert energy_of_temperature(D3, 0.5) == pytest.approx(0.5, rel=1e-12)
    # ground-state limit
    assert energy_of_temperature(D4, 1e-9) == pytest.approx(2e-9, rel=1e-9)
    # negative branch of the asymmetric tent: T = E - 1 on (0.3, 1)
    d = build_dos(make_spectrum([0.0, 0.3, 1.0]))
    assert energy_of_temperature(d, -0.35, branch="negative") == pytest.approx(
        0.65, rel=1e-12
    )


def test_energy_of_temperature_range_errors():
    for branch in ("first-monotone", "negative"):
        with pytest.raises(NoSolutionError):
            energy_of_temperature(D2, 0.5, branch=branch)
    with pytest.raises(NoSolutionError):
        energy_of_temperature(D4, -0.5)
    with pytest.raises(NoSolutionError):
        energy_of_temperature(D4, 0.5, branch="negative")
    with pytest.raises(NoSolutionError):
        energy_of_temperature(D4, 0.0)
    # asymmetric tent: increasing branch tops out at T = 0.3
    d = build_dos(make_spectrum([0.0, 0.3, 1.0]))
    with pytest.raises(NoSolutionError) as info:
        energy_of_temperature(d, 0.5)
    assert "0.3" in str(info.value)
    with pytest.raises(NoSolutionError):
        energy_of_temperature(d, -0.9, branch="negative")
    with pytest.raises(InvalidInputError):
        energy_of_temperature(D4, 0.5, branch="positive")
    with pytest.raises(InvalidInputError):
        energy_of_temperature(D4, math.inf)


def test_round_trip_battery(battery_spectrum):
    if battery_spectrum.dim == 2:
        pytest.skip("two-level system has no finite-temperature branch")
    d = build_dos(battery_spectrum)
    span = d.e_max - d.e_min
    x_lo = d.poly.argmax(smallest=True)[0]
    x_hi = d.poly.argmax(smallest=False)[0]
    for f in (0.15, 0.5, 0.85):
        e = d.e_min + f * (x_lo - d.e_min)
        try:
            t = temperature(d, e)
        except InvalidInputError:
            continue  # landed on an order-1 knot; side-dependent there
        if not math.isfinite(t):
            continue
        back = energy_of_temperature(d, t)
        assert abs(back - e) <= 1e-10 * span
        assert temperature(d, back) == pytest.approx(t, rel=1e-10)
        e_neg = x_hi + f * (d.e_max - x_hi)
        try:
            t_neg = temperature(d, e_neg)
        except InvalidInputError:
            continue
        if not math.isfinite(t_neg):
            continue
        back_neg = energy_of_temperature(d, t_neg, branch="negative")
        assert abs(back_neg - e_neg) <= 1e-10 * span


def test_critical_points_four_level():
    pts = critical_points(D4)
    assert [p.energy for p in pts] == [1.0, 2.0]
    first = pts[0]
    assert first.discontinuity_order == 2
    assert first.temperature == pytest.approx(0.5, abs=1e-12)
    assert first.jump[0] == pytest.approx(math.pi**3 / 6, rel=1e-12)
    assert first.jump[1] == pytest.approx(-(math.pi**3) / 3, rel=1e-12)


def test_critical_points_ladder_order():
    d = build_dos(make_spectrum([0.0, 1.0, 2.0, 3.0, 4.0]))
    pts = critical_points(d)
    assert [p.energy for p in pts] == [1.0, 2.0, 3.0]
    assert all(p.discontinuity_order == 3 for p in pts)


def test_critical_points_ising_chain():
    s = ising_spectrum(IsingChainSpec(3, 0.25, 1.0))
    pts = critical_points(build_dos(s))
    hits = [p for p in pts if abs(p.temperature - 0.5) <= 1e-6]
    assert len(hits) == 1
    assert hits[0].energy == pytest.approx(-0.75, abs=1e-12)
    assert hits[0].discontinuity_order == 4


def test_critical_points_edge_cases():
    assert critical_points(D2) == []
    # multiplicity dim-2 knot: Omega continuous, Omega' jumps
    d = build_dos(make_spectrum([(0.0, 1), (1.0, 3), (2.0, 1)]))
    pts = critical_points(d)
    assert len(pts) == 1
    assert pts[0].discontinuity_order == 1
    assert pts[0].jump[0] > 0.0 > pts[0].jump[1]


def test_thermo_curve_fields_and_checks():
    curve = thermo_curve(D4, n=600)
    assert curve.kB == 1.0
    assert curve.grid[0] > 0.0 and curve.grid[-1] < 3.0
    assert np.allclose(curve.S, np.log(eval_dos(D4, curve.grid)))
    below = curve.grid < 1.0
    assert np.allclose(curve.C[below], 2.0, rtol=1e-12)
    # S increases up to the mode
    rising = curve.grid < 1.5
    assert np.all(np.diff(curve.S[rising]) > 0.0)
    # T > 0 below the mode, T < 0 above
    assert np.all(curve.T[rising] > 0.0)
    assert np.all(curve.T[curve.grid > 1.5] < 0.0)


def test_specific_heat_matches_numeric_dE_dT():
    h = 1e-4
    for e in (0.4, 1.1, 1.2, 1.3, 2.6):
        dt_de = (temperature(D4, e + h) - temperature(D4, e - h)) / (2 * h)
        assert specific_heat_at_E(D4, e) == pytest.approx(1.0 / dt_de, rel=1e-6)


def test_entropy_slope_is_inverse_temperature():
    d = build_dos(make_spectrum([0.0, 0.7, 1.1, 2.3, 4.0]))
    h = 1e-5
    for e in (0.3, 1.0, 2.0, 3.1):
        ds_de = (
            math.log(eval_dos(d, e + h)) - math.log(eval_dos(d, e - h))
        ) / (2 * h)
        assert ds_de == pytest.approx(1.0 / temperature(d, e), rel=1e-6, abs=1e-9)


def test_thermo_curve_avoids_knots():
    curve = thermo_curve(D4, n=5, e_range=(0.0, 2.0))
    assert not np.any(curve.grid == 1.0)
    assert np.all(np.isfinite(curve.C))
    with pytest.raises(InvalidInputError):
        thermo_curve(D4, n=1)
    with pytest.raises(InvalidInputError):
        thermo_curve(D4, e_range=(2.0, 1.0))
    with pytest.raises(InvalidInputError):
        thermo_curve(D4, kb=0.0)


def test_equilibrate_interior_exact():
    # beta match 1/x1 = 2/x2 with x2 = E2 - eps, x1 = E1 + eps
    res = equilibrate(D3, 0.5, 1, D4, 0.25, 1)
    assert res.epsilon == pytest.approx(-0.25, abs=1e-10)
    assert res.t1 == pytest.approx(0.25, rel=1e-8)
    assert res.t2 == pytest.approx(0.25, rel=1e-8)
    assert not res.boundary
    expected_s = math.log(math.pi**2 / 2 * 0.25) + math.log(math.pi**3 / 6 * 0.125)
    assert res.total_entropy == pytest.approx(expected_s, rel=1e-10)


def test_equilibrate_identical_systems():
    res = equilibrate(D3, 0.3, 3, D3, 0.9, 1)
    assert res.epsilon == pytest.approx(0.45, abs=1e-10)
    assert res.t1 == pytest.approx(0.45, rel=1e-8)
    assert res.t2 == pytest.approx(0.45, rel=1e-8)
    # symmetric N: energies equalize at N1*(E2-E1)/2
    d = build_dos(make_spectrum([0.0, 0.5, 1.7, 2.0]))
    res = equilibrate(d, 0.5, 2, d, 1.1, 2)
    assert res.epsilon == pytest.approx(0.6, abs=1e-8)
    assert res.t1 == pytest.approx(res.t2, rel=1e-8)
    # already equal: nothing moves
    res = equilibrate(d, 0.7, 1, d, 0.7, 1)
    assert abs(res.epsilon) <= 1e-9
    assert res.t1 == pytest.approx(res.t2, rel=1e-8)


def test_equilibrate_kink_optimum():
    # the tent's peak knot pins the optimum: entropy is maximal there
    # but beta jumps across, so the temperatures legitimately differ
    tent = build_dos(make_spectrum([0.0, 0.2, 3.0]))
    res = equilibrate(tent, 0.1, 1, D4, 0.8, 1)
    assert res.epsilon == pytest.approx(0.1, abs=1e-9)
    assert not res.boundary
    assert res.t1 == pytest.approx(-2.8, rel=1e-6)  # right limit at the peak
    assert res.t2 == pytest.approx(0.35, rel=1e-6)  # four-level at E = 0.7
    # brute-force oracle: scanned entropy is maximal at the returned eps
    def entropy(eps):
        w1 = eval_dos(tent, 0.1 + eps)
        w2 = eval_dos(D4, 0.8 - eps)
        return -math.inf if w1 <= 0 or w2 <= 0 else math.log(w1) + math.log(w2)

    grid = np.linspace(-0.05, 0.75, 16001)
    brute = grid[np.argmax([entropy(x) for x in grid])]
    assert abs(res.epsilon - brute) <= 2 * (grid[1] - grid[0])
    assert entropy(res.epsilon) >= entropy(res.epsilon - 0.01)
    assert entropy(res.epsilon) >= entropy(res.epsilon + 0.01)


def test_equilibrate_validation():
    with pytest.raises(InvalidInputError):
        equilibrate(D3, 0.5, 0, D4, 0.25, 1)
    with pytest.raises(InvalidInputError):
        equilibrate(D3, 0.5, 1.5, D4, 0.25, 1)
    with pytest.raises(InvalidInputError):
        equilibrate(D3, 2.5, 1, D4, 0.25, 1)


def test_affine_shift_invariance():
    base = make_spectrum([0.0, 1.0, 2.0, 3.0, 4.0])
    shift = make_spectrum([0.37, 1.37, 2.37, 3.37, 4.37])
    db, ds = build_dos(base), build_dos(shift)
    for e in (0.3, 1.6, 2.2, 3.7):
        assert temperature(ds, e + 0.37) == pytest.approx(
            temperature(db, e), rel=1e-9
        )
        assert specific_heat_at_E(ds, e + 0.37) == pytest.approx(
            specific_heat_at_E(db, e), rel=1e-9
        )


@pytest.mark.parametrize(
    "s",
    [
        make_spectrum(list(np.sort(np.random.default_rng(20260817).uniform(-2, 2, 64)))),
        ising_spectrum(IsingChainSpec(6, 0.7, 0.35)),
    ],
    ids=["generic_dim64", "ising_L6"],
)
def test_critical_points_order_from_multiplicity(s):
    # a level of multiplicity m first jumps at derivative order dim-1-m
    d = build_dos(s)
    levels, mult = np.unique(d.knots, return_counts=True)
    pts = critical_points(d)
    assert [p.energy for p in pts] == levels[1:-1].tolist()
    assert [p.discontinuity_order for p in pts] == (s.dim - 1 - mult[1:-1]).tolist()


@pytest.mark.parametrize("c", [2.0**10, -(2.0**10), 2.0**20, -(2.0**20)])
def test_solves_shift_invariance(c):
    # dyadic levels and energies, so E + c is exact: shifting both
    # spectra by c shifts every solved energy by c and leaves the
    # temperatures alone.  The solved energies are doubles of magnitude
    # ~|c|, so the tolerances carry the rounding r = ulp(c)/2 of a shifted
    # position.  In equilibrate, rounding x1 and x2 moves the root of
    # beta1 - beta2 by at most max(N1, N2)*r, and a position error dx
    # moves T by dx*dT/dE = dx/C.
    spectra = ([0.0, 0.25, 0.5, 1.5, 2.0], [0.0, 0.75, 1.0, 2.5])
    r = 0.5 * math.ulp(c)
    base, shifted = [], []
    for es in spectra:
        base.append(build_dos(make_spectrum(es)))
        shifted.append(build_dos(make_spectrum([e + c for e in es])))
        width = es[-1] - es[0]
        for t in (0.05, 0.2, 0.4):
            e0 = energy_of_temperature(base[-1], t)
            assert abs(energy_of_temperature(shifted[-1], t) - c - e0) <= 1e-12 * width + 4.0 * r
    (d1, d2), (s1, s2) = base, shifted
    n1, n2 = 3, 2
    for e1, e2 in ((0.25, 0.5), (1.0, 2.0)):
        hi = min(n1 * (d1.e_max - e1), n2 * (e2 - d2.e_min))
        span = hi - max(n1 * (d1.e_min - e1), n2 * (e2 - d2.e_max))
        r0 = equilibrate(d1, e1, n1, d2, e2, n2)
        rc = equilibrate(s1, e1 + c, n1, s2, e2 + c, n2)
        assert not r0.boundary and not rc.boundary
        tol_eps = 1e-12 * span + max(n1, n2) * r
        assert abs(rc.epsilon - r0.epsilon) <= tol_eps
        sides = ((d1, e1 + r0.epsilon / n1, n1, r0.t1, rc.t1), (d2, e2 - r0.epsilon / n2, n2, r0.t2, rc.t2))
        for d, x, n, t0, tc in sides:
            dx = r + tol_eps / n
            assert abs(tc - t0) <= 1e-12 * abs(t0) + dx / specific_heat_at_E(d, x)


@pytest.mark.parametrize("dim", [48, 64])
def test_energy_of_temperature_where_omega_is_tiny(dim):
    # below the second level Omega = c*(E - E_min)^(N-2), so beta =
    # (N-2)/(E - E_min) and T is reached at E_min + (N-2)*T exactly, where
    # Omega is as small as 1e-300.  Above the second-highest level Omega
    # is c*(E_max - E)^(N-2) but evaluates by cancellation: the negative
    # branch finds the same exact root or reports Omega's rounding noise.
    width = 4.0
    d = build_dos(make_spectrum([0.0, *np.linspace(1.0, width, dim - 1)]))
    for t in (1e-4 * width, 1e-5 * width, 1e-6 * width):
        assert abs(energy_of_temperature(d, t) - (dim - 2) * t) <= 1e-12 * width
        try:
            e = energy_of_temperature(d, -t, branch="negative")
        except NoSolutionError:
            continue
        assert abs(e - (width - (dim - 2) * t)) <= 1e-12 * width


def test_energy_of_temperature_skips_a_noise_sign_change():
    # near the top of this spectrum the computed Omega is rounding noise
    # and changes sign, so the computed beta - 1/T changes sign at E ≈
    # 103.782 as well; the root (103.656721107843 by mpmath) lies where
    # Omega still carries ~4e-6 of relative error, which bounds the match
    levels = [
        (100.03540681210455, 1), (100.15627644162333, 3), (100.18670057906668, 1),
        (101.38828474433936, 2), (102.12485556219265, 1), (102.16952728163373, 1),
        (102.6399563488964, 1), (102.89237122996734, 2), (103.79515126175177, 2),
    ]
    d = build_dos(make_spectrum(levels))
    e = energy_of_temperature(d, -0.01267788227000632, branch="negative")
    assert abs(e - 103.656721107843) <= 1e-6 * (d.e_max - d.e_min)


def test_equilibrate_kink_reports_right_sided_temperatures():
    # beta of (0, 1, 1, 1, 2) jumps from 3 to -3 at E = 1 and beta of
    # system 2 stays in between, so the optimum is pinned at x1 = 1; the
    # solve reaches it from either side, the reported T1 is the right limit
    d1 = build_dos(make_spectrum([0.0, 1.0, 1.0, 1.0, 2.0]))
    d2 = build_dos(make_spectrum([0.0, 1.0, 2.0, 3.0]))
    right = temperature(d1, 1.0, side="right")
    for e1, n1 in ((0.3, 1), (0.3, 2), (0.45, 1), (0.6, 2), (0.7, 3), (1.3, 1), (1.6, 3)):
        r = equilibrate(d1, e1, n1, d2, 1.4, 2)
        assert not r.boundary
        assert abs(e1 + r.epsilon / n1 - 1.0) <= 1e-12
        assert r.t1 == right
