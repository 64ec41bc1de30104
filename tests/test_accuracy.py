"""Omega, its derivatives, bin integrals and the canonical table against
the arbitrary-precision oracle in bench/oracle.py.

The spectra reach the dimension guard (64), include few distinct levels
at high multiplicity and Ising chains, and the points sit 1e-4 of the
width from each edge as well as in the bulk.  Omega, a bin integral,
log Z and U are sums of nonnegative terms, so they are held to 1e-12
relative (U to 1e-12 of the width).  Omega' and Omega'' difference
coefficients that carry O(dim) ulp of rounding, which leaves up to
~6e-14 of their largest size on the piece near a zero crossing; they
are held to 1e-12 of the larger of |exact| and 0.1 of that size.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from qmce import IsingChainSpec, build_dos, energy_of_temperature, ising_spectrum, make_spectrum, thermo_curve
from qmce.canonical import _canonical_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import oracle  # noqa: E402

_RNG = np.random.default_rng(20261020)

SPECTRA = {
    "dim2": make_spectrum([0.0, 1.0]),
    "dim3": make_spectrum([0.0, 0.3, 2.0]),
    "uniform_dim8": make_spectrum(list(np.linspace(0.0, 4.0, 8))),
    "generic_dim24": make_spectrum(list(np.sort(_RNG.uniform(-1.0, 3.0, 24)))),
    "uniform_dim64": make_spectrum(list(np.linspace(0.0, 4.0, 64))),
    "levels_34_30": make_spectrum([(0.0, 34), (1.9377, 30)]),
    "levels_10_10_12": make_spectrum([(0.0, 10), (0.4, 10), (1.0, 12)]),
    "levels_4x": make_spectrum([(0.0, 9), (0.7, 12), (1.1, 15), (2.5, 12)]),
    "levels_5x": make_spectrum([(-1.0, 7), (-0.2, 13), (0.5, 20), (0.9, 11), (3.0, 13)]),
    "ising_L4": ising_spectrum(IsingChainSpec(4, 0.7, 0.35)),
    "ising_L6": ising_spectrum(IsingChainSpec(6, 0.25, 1.0)),
}
FRACTIONS = (1e-4, 0.0137, 0.25, 0.5, 0.6180339887, 0.9, 1.0 - 1e-4)


@pytest.fixture(scope="module", params=sorted(SPECTRA), ids=sorted(SPECTRA))
def case(request):
    s = SPECTRA[request.param]
    return build_dos(s), oracle.Dos(s.levels)


def _piece_size(ref, poly, x):
    """Largest |exact| value of each derivative at the ends and middle of x's piece."""
    bp = poly.breakpoints
    j = min(int(np.searchsorted(bp, x, side="right")) - 1, poly.npieces - 1)
    probes = [ref.derivs(bp[j], 3), ref.derivs(0.5 * (bp[j] + bp[j + 1]), 3), ref.derivs(bp[j + 1], 3, side="left")]
    return [max(abs(float(p[k])) for p in probes) for k in range(3)]


def test_omega_and_derivatives(case):
    d, ref = case
    width = d.e_max - d.e_min
    for f in FRACTIONS:
        x = d.e_min + f * width
        exact = [float(v) for v in ref.derivs(x, 3)]
        size = _piece_size(ref, d.poly, x)
        got = [d.poly.value(x, k) for k in range(3)]
        assert abs(got[0] - exact[0]) <= 1e-12 * exact[0], (f, got[0], exact[0])
        for k in (1, 2):
            assert abs(got[k] - exact[k]) <= 1e-12 * max(abs(exact[k]), 0.1 * size[k]), (f, k, got[k], exact[k])


def test_bin_integrals(case):
    d, ref = case
    width = d.e_max - d.e_min
    edges = d.e_min + width * np.array([0.0, 1 / 512, 0.25, 0.25 + 1 / 512, 0.5, 1 - 1 / 512, 1.0])
    for a, b in zip(edges[:-1], edges[1:]):
        exact = float(ref.integral(a, b))
        got = d.poly.integrate(a, b)
        assert abs(got - exact) <= 1e-12 * exact, (a, b, got, exact)


def test_canonical_table(case):
    d, ref = case
    width = d.e_max - d.e_min
    betas = np.array([-100.0, -10.0, -1.0, 0.1, 1.0, 10.0, 100.0]) / width
    table = _canonical_table(d, betas)
    for beta, log_z, u in zip(betas, table.log_Z, table.U):
        z_exact, u_exact = ref.canonical(beta)
        log_exact = float(oracle.mp.log(z_exact))
        assert abs(log_z - log_exact) <= 1e-12 * max(1.0, abs(log_exact)), (beta * width, log_z, log_exact)
        assert abs(u - float(u_exact)) <= 1e-12 * width, (beta * width, u, float(u_exact))


@pytest.mark.parametrize("name", ["uniform_dim64", "ising_L6"])
def test_thermo_curve_is_finite_with_the_sign_of_omega_prime(name):
    # Omega is log-concave, so Omega' and T are positive below the mode
    # and negative above it, and C > 0 where Omega' != 0, also where
    # Omega'^2 is below the double range (Omega ~ 1e-234 at the first point)
    d = build_dos(SPECTRA[name])
    curve = thermo_curve(d, n=1000)
    assert np.isfinite(curve.S).all() and not np.isnan(curve.T).any() and not np.isnan(curve.C).any()
    mode = d.poly.argmax()[0]
    assert (curve.T[curve.grid < mode] > 0.0).all() and (curve.T[curve.grid > mode] < 0.0).all()
    assert (curve.C > 0.0).all()


def test_energy_of_temperature_at_the_top_of_a_dim14_spectrum():
    # near the top of the support; the root by mpmath is 103.656721107843
    levels = [
        (100.03540681210455, 1), (100.15627644162333, 3), (100.18670057906668, 1),
        (101.38828474433936, 2), (102.12485556219265, 1), (102.16952728163373, 1),
        (102.6399563488964, 1), (102.89237122996734, 2), (103.79515126175177, 2),
    ]
    d = build_dos(make_spectrum(levels))
    e = energy_of_temperature(d, -0.01267788227000632, branch="negative")
    assert abs(e - 103.656721107843) <= 1e-10 * (d.e_max - d.e_min)
