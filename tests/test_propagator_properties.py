"""Property test of the two exact line forms: raw and regularized agree on random inputs.

Both integrate only over the cone intersected with the support, so at
order 32 x 8 panels they agree to the bound of the `dalembert` suite on
any bump support, and both are exactly 0.0 where the cone misses it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from liouwave import BumpProfile, gauss_legendre, solve_cauchy, solve_cauchy_regularized  # noqa: E402

RULE = gauss_legendre(32)


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(-2.0, 1.0),
    width=st.floats(0.3, 2.5),
    k=st.floats(0.0, 3.0),
    t=st.floats(0.01, 2.5),
    offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10),
)
def test_raw_and_regularized_agree_and_vanish_off_the_cone(a, width, k, t, offsets):
    f = BumpProfile(a, a + width)
    a, b = f.support
    # positions from a distance 1 beyond the cone's reach to the same distance beyond it
    xs = 0.5 * (a + b) + np.array(offsets) * (0.5 * (b - a) + t + 1.0)
    raw = solve_cauchy(k, f, t, xs, RULE, 8)
    reg = solve_cauchy_regularized(k, f, t, xs, RULE, 8)
    assert np.max(np.abs(raw - reg)) <= 1e-9
    outside = (xs + t <= a) | (xs - t >= b)
    assert np.all(raw[outside] == 0.0) and np.all(reg[outside] == 0.0)
