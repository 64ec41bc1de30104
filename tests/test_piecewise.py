"""Unit tests for the piecewise-polynomial spine."""

import math

import numpy as np
import pytest
from scipy import integrate

from qmce import build_dos, make_spectrum
from qmce.piecewise import PiecewisePolynomial, _exp_moments


def two_piece():
    # f(x) = 1 + 2u on [0,1), u = x;  f(x) = 3 - u^2 on [1,3), u = x-1
    return PiecewisePolynomial(
        np.array([0.0, 1.0, 3.0]), np.array([[1.0, 2.0, 0.0], [3.0, 0.0, -1.0]])
    )


class TestEvaluation:
    def test_values(self):
        p = two_piece()
        assert p.value(0.0) == 1.0
        assert p.value(0.5) == 2.0
        assert p.value(1.0) == 3.0  # right piece at its left end
        assert p.value(2.0) == 2.0
        assert p.value(3.0) == -1.0  # closed right endpoint
        assert p.value(-0.1) == 0.0 and p.value(3.1) == 0.0

    def test_vectorized(self):
        p = two_piece()
        xs = np.array([-1.0, 0.5, 1.0, 3.0, 4.0])
        assert np.allclose(p.value(xs), [0.0, 2.0, 3.0, -1.0, 0.0])

    def test_one_sided(self):
        p = two_piece()
        assert p.one_sided(1.0, 0) == (3.0, 3.0)
        left, right = p.one_sided(1.0, 1)
        assert left == 2.0 and right == 0.0
        assert p.one_sided(0.0, 0) == (0.0, 1.0)
        assert p.one_sided(3.0, 0) == (-1.0, 0.0)
        assert p.one_sided(5.0, 0) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "poly",
        [two_piece(), build_dos(make_spectrum([(0.0, 1), (0.4, 2), (1.3, 1), (2.0, 1)])).poly],
        ids=["two_piece", "dos_dim5"],
    )
    def test_value_order_matches_one_sided(self, poly):
        # value(x, k) is exactly the right limit of one_sided, the left
        # limit at the closed top endpoint, and 0 outside the support
        bp = poly.breakpoints
        xs = np.concatenate([bp, 0.5 * (bp[:-1] + bp[1:]), [bp[0] - 1.0, bp[-1] + 1.0]])
        for k in range(poly.degree + 2):
            expect = [
                poly.one_sided(x, k)[0] if x == bp[-1] else poly.one_sided(x, k)[1] for x in xs
            ]
            assert poly.value(xs, k).tolist() == expect
            assert [poly.value(x, k) for x in xs] == expect

    def test_argmax(self):
        p = two_piece()
        x, v = p.argmax()
        assert v == pytest.approx(3.0)
        assert x == pytest.approx(1.0)
        flat = PiecewisePolynomial(np.array([0.0, 2.0]), np.array([[5.0]]))
        assert flat.argmax(smallest=True)[0] == 0.0
        assert flat.argmax(smallest=False)[0] == 2.0


class TestCalculus:
    def test_integral(self):
        p = two_piece()
        # piece 1: int (1+2u) du over [0,1] = 2; piece 2: int (3-u^2) over [0,2] = 6-8/3
        assert p.integral() == pytest.approx(2 + 6 - 8 / 3)
        assert p.integrate(0.5, 1.5) == pytest.approx(1.25 + (1.5 - 0.125 / 3))
        assert p.integrate(1.5, 0.5) == pytest.approx(-p.integrate(0.5, 1.5))
        assert p.integrate(-5, 0.5) == pytest.approx(0.5 + 0.25)
        assert p.integrate(10, 20) == 0.0

    def test_scaled(self):
        p = two_piece().scaled(2.0)
        assert p.value(0.5) == 4.0


class TestExpMoments:
    @pytest.mark.parametrize("beta,h", [(1e-9, 2.0), (0.3, 1.7), (4.0, 2.5), (60.0, 2.0), (80.0, 3.0)])
    def test_matches_quadrature(self, beta, h):
        ims = _exp_moments(beta, h, 8)
        for m in range(9):
            ref, _ = integrate.quad(lambda u: u**m * math.exp(-beta * u), 0, h, epsabs=0, epsrel=1e-13)
            assert ims[m] == pytest.approx(ref, rel=1e-11)

    def test_tiny_beta_no_cancellation(self):
        ims = _exp_moments(1e-14, 1.0, 5)
        for m in range(6):
            assert ims[m] == pytest.approx(1.0 / (m + 1), rel=1e-12)


class TestLaplace:
    @pytest.mark.parametrize("beta", [-3.0, -0.5, 0.0, 1e-8, 0.7, 5.0, 40.0])
    def test_matches_quadrature(self, beta):
        p = two_piece()
        ref, _ = integrate.quad(
            lambda x: p.value(x) * math.exp(-beta * x), 0, 3, points=[1], limit=400,
            epsabs=1e-14, epsrel=1e-12,
        )
        assert p.laplace(beta) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("beta", [-2.0, 0.0, 0.9, 12.0])
    def test_first_moment(self, beta):
        p = two_piece()
        ref, _ = integrate.quad(
            lambda x: x * p.value(x) * math.exp(-beta * x), 0, 3, points=[1], limit=400,
            epsabs=1e-14, epsrel=1e-12,
        )
        assert p.laplace(beta, moment=1) == pytest.approx(ref, rel=1e-10)

    def test_offset_support(self):
        # support away from zero exercises the exp(-beta*a) prefactors
        p = PiecewisePolynomial(np.array([-4.0, -1.0]), np.array([[2.0, 1.0]]))
        for beta in (-1.5, 2.0):
            ref, _ = integrate.quad(
                lambda x: p.value(x) * math.exp(-beta * x), -4, -1,
                epsabs=1e-14, epsrel=1e-12,
            )
            assert p.laplace(beta) == pytest.approx(ref, rel=1e-11)


class TestConvolve:
    def test_uniform_uniform_is_triangle(self):
        u = PiecewisePolynomial(np.array([0.0, 1.0]), np.array([[1.0]]))
        t = u.convolve(u)
        assert np.allclose(t.breakpoints, [0.0, 1.0, 2.0])
        xs = np.linspace(0.01, 1.99, 57)
        expect = np.where(xs < 1, xs, 2 - xs)
        assert np.allclose(t.value(xs), expect, atol=1e-13)

    def test_against_quadrature(self):
        p = two_piece()
        q = PiecewisePolynomial(np.array([-1.0, 0.5]), np.array([[1.0, 3.0]]))
        c = p.convolve(q)
        for x in np.linspace(-0.9, 3.4, 23):
            ref, _ = integrate.quad(
                lambda t_: p.value(t_) * q.value(x - t_), 0, 3, limit=400,
                epsabs=1e-12, epsrel=1e-11,
            )
            assert c.value(x) == pytest.approx(ref, abs=5e-9)

    def test_integral_multiplies(self):
        p = two_piece()
        q = PiecewisePolynomial(np.array([0.0, 2.0]), np.array([[0.5, 1.0]]))
        c = p.convolve(q)
        assert c.integral() == pytest.approx(p.integral() * q.integral(), rel=1e-12)

    def test_commutes(self):
        p = two_piece()
        q = PiecewisePolynomial(np.array([0.0, 2.0]), np.array([[0.5, 1.0]]))
        a, b = p.convolve(q), q.convolve(p)
        xs = np.linspace(0, 5, 101)
        assert np.allclose(a.value(xs), b.value(xs), atol=1e-12)

    def test_smoothness_order_rises(self):
        # conv of two C^{-1} boxes is C^0; derivative jumps at knots
        u = PiecewisePolynomial(np.array([0.0, 1.0]), np.array([[1.0]]))
        t = u.convolve(u)
        l, r = t.one_sided(1.0, 1)
        assert l == pytest.approx(1.0) and r == pytest.approx(-1.0)


class TestValidation:
    def test_monotonic_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial(np.array([0.0, 0.0, 1.0]), np.zeros((2, 1)))

    def test_row_count(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial(np.array([0.0, 1.0]), np.zeros((2, 1)))
