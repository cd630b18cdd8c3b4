"""Property tests of the kernel layer: arrays against per-element calls, and symmetries.

Every comparison is bitwise (on the bytes, so signed zeros count): the
kernel functions run one numpy path for numbers and for arrays, and the
symmetries hold exactly in the sinh-product form of the argument.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from liouwave import (  # noqa: E402
    kernel_argument,
    kernel_argument_partials,
    pde_residual,
    wave_kernel,
)

COORD = st.floats(-3.0, 3.0)
COUPLING = st.floats(-4.0, 4.0)
NONZERO_COUPLING = st.one_of(st.floats(-4.0, -0.1), st.floats(0.1, 4.0))
SIGN = st.sampled_from((1.0, -1.0))


@st.composite
def cone_points(draw, margin: float = 0.0, coupling=COUPLING):
    """(t, x, x', k) with |t| >= |x - x'| + margin, the cone itself included when margin = 0."""
    x, xp = draw(COORD), draw(COORD)
    gap = draw(st.just(0.0) | st.floats(0.0, 3.0)) if margin == 0.0 else draw(st.floats(margin, 3.0))
    return draw(SIGN) * (abs(x - xp) + gap), x, xp, draw(coupling)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# name -> (function of (t, x, x', k) giving a float or a tuple of floats, points it accepts)
FUNCTIONS = {
    "kernel_argument": (kernel_argument, cone_points()),
    "kernel_argument_partials": (
        kernel_argument_partials, cone_points(1e-3, NONZERO_COUPLING)),
    "wave_kernel first kind": (
        lambda t, x, xp, k: wave_kernel(t, x, xp, k, a=0.7), cone_points()),
    "wave_kernel both kinds": (
        lambda t, x, xp, k: wave_kernel(t, x, xp, k, a=0.25, b=-0.5),
        cone_points(1e-3, NONZERO_COUPLING)),
    "pde_residual": (
        lambda t, x, xp, k: pde_residual(t, x, xp, k, a=0.0, b=1.0, h=1e-3),
        cone_points(3e-3, NONZERO_COUPLING)),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_arrays_equal_per_element_calls_bitwise(name):
    fn, points = FUNCTIONS[name]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(points, min_size=1, max_size=12))
    def check(pts):
        batched = fn(*(np.array(c) for c in zip(*pts)))
        single = [fn(*p) for p in pts]
        assert _bits(batched) == _bits(np.transpose(single))

    check()


@settings(max_examples=60, deadline=None)
@given(ts=st.lists(st.floats(2.0, 4.0), min_size=1, max_size=4),
       xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
       xp=st.floats(-1.0, 1.0), k=NONZERO_COUPLING)
def test_broadcast_grid_equals_per_element_calls_bitwise(ts, xs, xp, k):
    # |x - x'| <= 2 <= t: every (t, x) of the grid is inside the cone
    grid = kernel_argument(np.array(ts)[:, None], np.array(xs), xp, k)
    assert grid.shape == (len(ts), len(xs))
    assert _bits(grid) == _bits([[kernel_argument(t, x, xp, k) for x in xs] for t in ts])
    kernel = wave_kernel(np.array(ts)[:, None], np.array(xs), xp, k, b=0.3)
    assert _bits(kernel) == _bits([[wave_kernel(t, x, xp, k, b=0.3) for x in xs] for t in ts])


@settings(max_examples=200, deadline=None)
@given(cone_points())
def test_argument_and_kernel_symmetric_and_even_bitwise(point):
    t, x, xp, k = point
    z = kernel_argument(t, x, xp, k)
    w = wave_kernel(t, x, xp, k, a=0.7)
    for other in ((t, xp, x, k), (-t, x, xp, k), (t, x, xp, -k)):
        assert _bits(kernel_argument(*other)) == _bits(z)
        assert _bits(wave_kernel(*other, a=0.7)) == _bits(w)


@settings(max_examples=100, deadline=None)
@given(cone_points(3e-3, NONZERO_COUPLING))
def test_interior_functions_even_and_symmetric_bitwise(point):
    # strictly inside the cone with k != 0, where the partials, the
    # second-kind branch and the residual are defined
    t, x, xp, k = point
    assert _bits(kernel_argument_partials(t, x, xp, -k)) == _bits(
        kernel_argument_partials(t, x, xp, k))
    assert _bits(pde_residual(t, x, xp, -k)) == _bits(pde_residual(t, x, xp, k))
    w = wave_kernel(t, x, xp, k, a=0.25, b=-0.5)
    for other in ((t, xp, x, k), (-t, x, xp, k), (t, x, xp, -k)):
        assert _bits(wave_kernel(*other, a=0.25, b=-0.5)) == _bits(w)
