"""Accuracy contracts for the SciPy Bessel ufuncs the solvers call.

The kernel and the line solvers take J0 and Y0 from ``scipy.special.j0``
and ``y0``; the transmission-line kernel takes ``scipy.special.i0e``.
Each is checked on a stated interval against ascending power series and
40-digit mpmath values.  The cylinder-equation residual and the Wronskian
are checked by the ``specfun`` verify suite (tests/test_acceptance.py).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import i0e, j0, y0

from oracles import bisect_root, i0_series, j0_series, y0_series

mp.mp.dps = 40

# (absolute bound, interval) for J0 and Y0; (relative bound, interval) for
# i0e over the range of arguments mass*sqrt(t^2 - d^2) the telegraph meets
J0_ABS_TOL, J0_DOMAIN = 1e-13, (0.0, 50.0)
Y0_ABS_TOL, Y0_DOMAIN = 1e-12, (1e-8, 50.0)
I0E_REL_TOL, I0E_DOMAIN = 1e-13, (0.0, 1e4)


def test_j0_at_zero_is_exactly_one():
    assert j0(0.0) == 1.0


def test_j0_against_series_oracle():
    assert j0(1.0) == pytest.approx(0.7651976865579666, abs=1e-15)
    # the double-precision series oracle is itself only good to ~1e-13
    # past x ~ 8 (its largest term grows like (x^2/4)^m / (m!)^2)
    for x in (0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 8.0):
        assert j0(x) == pytest.approx(j0_series(x), abs=1e-13)


def test_j0_first_zero_located_by_series_bisection():
    root = bisect_root(j0_series, 2.0, 3.0)
    assert root == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(j0(root)) < 1e-12


def test_j0_accuracy_contract_against_mpmath():
    xs = np.linspace(*J0_DOMAIN, 501)
    worst = max(abs(j0(x) - float(mp.besselj(0, mp.mpf(float(x))))) for x in xs)
    assert worst <= J0_ABS_TOL


def test_y0_against_series_oracle():
    assert y0(1.0) == pytest.approx(0.08825696421567696, abs=1e-14)
    for x in (0.2, 0.7, 1.0, 2.5, 4.0, 9.0):
        assert y0(x) == pytest.approx(y0_series(x), abs=1e-12)


def test_y0_log_divergence_near_zero():
    assert y0(1e-9) < -12.0
    assert y0(1e-9) < y0(1e-6) < y0(1e-3)


def test_y0_accuracy_contract_against_mpmath():
    lo, hi = Y0_DOMAIN
    xs = np.concatenate([np.geomspace(lo, 0.5, 100), np.linspace(0.5, hi, 401)])
    worst = max(abs(y0(x) - float(mp.bessely(0, mp.mpf(float(x))))) for x in xs)
    assert worst <= Y0_ABS_TOL


def test_i0_against_series_oracle():
    for x in (0.0, 0.5, 1.0, 2.0, 4.5):
        assert i0e(x) * math.exp(x) == pytest.approx(i0_series(x), rel=1e-14)


def test_i0e_accuracy_contract_against_mpmath():
    lo, hi = I0E_DOMAIN
    xs = np.concatenate([np.linspace(lo, 5.0, 101), np.geomspace(5.0, hi, 400)])
    worst = 0.0
    for x in xs:
        exact = mp.besseli(0, mp.mpf(float(x))) * mp.exp(-mp.mpf(float(x)))
        worst = max(worst, float(abs((i0e(x) - exact) / exact)))
    assert worst <= I0E_REL_TOL
