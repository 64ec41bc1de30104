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
