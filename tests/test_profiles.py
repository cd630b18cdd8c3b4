import numpy as np
import pytest

from liouwave import (
    BumpProfile,
    ConfigError,
    FunctionProfile,
    SampledProfile,
    read_profile_csv,
    solve_cauchy,
    write_profile_csv,
)


def test_bump_zero_outside_support_exactly():
    f = BumpProfile(-1.0, 1.0)
    assert f(-1.0) == 0.0
    assert f(1.0) == 0.0
    assert f(-5.0) == 0.0
    xs = np.array([-2.0, -1.0, 1.0, 3.0])
    assert np.all(f(xs) == 0.0)


def test_bump_peak_and_symmetry():
    f = BumpProfile(-1.0, 1.0)
    assert f(0.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert f(0.4) == f(-0.4)
    g = BumpProfile(2.0, 6.0)
    assert g(4.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert g(4.0 + 1.3) == g(4.0 - 1.3)


def test_bump_scalar_and_array_shapes():
    f = BumpProfile(-1.0, 1.0)
    assert isinstance(f(0.5), float)
    out = f(np.linspace(-2, 2, 9))
    assert out.shape == (9,)


def test_function_profile_clamps_outside_support():
    f = FunctionProfile(lambda x: np.ones_like(x), 0.0, 1.0)
    assert f(-0.5) == 0.0
    assert f(0.5) == 1.0
    assert f(1.5) == 0.0


def test_sampled_profile_interpolates_smooth_data():
    base = BumpProfile(-1.0, 1.0)
    nodes = np.linspace(-1.2, 1.2, 241)
    prof = SampledProfile(nodes, base(nodes))
    xs = np.linspace(-0.95, 0.95, 101)
    assert np.max(np.abs(prof(xs) - base(xs))) < 1e-7


def test_sampled_profile_zero_outside_declared_support():
    nodes = np.linspace(-1.0, 1.0, 101)
    vals = np.maximum(0.0, 1.0 - np.abs(nodes))
    prof = SampledProfile(nodes, vals, support=(-1.0, 1.0))
    assert prof(1.0001) == 0.0
    assert prof(-3.0) == 0.0


def test_sampled_profile_validation():
    with pytest.raises(ConfigError):
        SampledProfile([0.0, 1.0, 0.5, 2.0], [0, 1, 1, 0])
    with pytest.raises(ConfigError):
        SampledProfile([0.0, 1.0, 2.0], [0, 1, 0])


def test_profile_csv_round_trip_is_lossless(tmp_path):
    base = BumpProfile(-1.0, 1.0)
    nodes = np.linspace(-1.2, 1.2, 201)
    prof = SampledProfile(nodes, base(nodes))
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    back = read_profile_csv(path)
    assert np.array_equal(back.nodes, prof.nodes)
    assert np.array_equal(back.values, prof.values)


def test_round_trip_profile_yields_identical_solve(tmp_path):
    # support inference happens on read, so one write/read reaches the
    # fixed point; after that the round trip must not move the solve at all
    base = BumpProfile(-1.0, 1.0)
    nodes = np.linspace(-1.2, 1.2, 201)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, nodes, base(nodes))
    first = read_profile_csv(path)
    again = tmp_path / "again.csv"
    write_profile_csv(again, first)
    second = read_profile_csv(again)
    assert second.support == first.support
    v1 = solve_cauchy(1.0, first, 1.0, 0.2)
    v2 = solve_cauchy(1.0, second, 1.0, 0.2)
    assert v1 == v2


def test_read_profile_infers_support_from_nonzero_samples(tmp_path):
    nodes = np.linspace(-2.0, 2.0, 81)
    vals = BumpProfile(-1.0, 1.0)(nodes)
    path = tmp_path / "wide.csv"
    write_profile_csv(path, nodes, vals)
    prof = read_profile_csv(path)
    a, b = prof.support
    dx = nodes[1] - nodes[0]
    assert a == pytest.approx(-1.0, abs=1.5 * dx)
    assert b == pytest.approx(1.0, abs=1.5 * dx)
    assert prof(a) == 0.0 and prof(b) == 0.0


def test_read_profile_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,0\n1,1\n")
    with pytest.raises(ConfigError, match=r"^profile CSV must start with header 'X,f', got 'a,b'$"):
        read_profile_csv(path)


# a valid file with comment and blank lines before the header and among the rows
COMMENTED_CSV = """
# sampled bump
   X , f

0,0
1,0.5
  # a comment line
2,0.25
3,0

4,0
"""


def test_read_profile_skips_comment_and_blank_lines(tmp_path):
    path = tmp_path / "commented.csv"
    path.write_text(COMMENTED_CSV)
    prof = read_profile_csv(path)
    assert np.array_equal(prof.nodes, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(prof.values, [0.0, 0.5, 0.25, 0.0, 0.0])
    assert prof.support == (0.0, 3.0)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0\n1,1,1\n2,0\n", r"^profile CSV rows need two columns, got '1,1,1'$"),
        ("0,0\n1\n2,0\n", r"^profile CSV rows need two columns, got '1'$"),
        ("0,0\n1,1\n2,0,\n", r"^profile CSV rows need two columns, got '2,0,'$"),
        ("0,0,0\n1,1,1\n2,0,0\n", r"^profile CSV rows need two columns, got '0,0,0'$"),
        ("0\n1\n2\n", r"^profile CSV rows need two columns, got '0'$"),
        ("0,0\n\n# note\n1,x\n2,0\n", r"^profile CSV line 5 is not two numbers: '1,x'$"),
        ("0,0\n1,1 # note\n2,0\n", r"^profile CSV line 3 is not two numbers: '1,1 # note'$"),
        ("0,0\n1,\n2,0\n", r"^profile CSV line 3 is not two numbers: '1,'$"),
        ("0,0\n1,0\n2,0\n", r"^profile CSV contains no nonzero samples$"),
        ("# only comments\n", r"^profile CSV contains no nonzero samples$"),
    ],
    ids=["three-columns", "one-column", "trailing-comma", "three-columns-throughout",
         "one-column-throughout", "not-a-number", "trailing-comment", "empty-field", "all-zero",
         "no-rows"],
)
def test_read_profile_rejects_malformed_rows(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("X,f\n" + rows)
    with pytest.raises(ConfigError, match=message):
        read_profile_csv(path)


@pytest.mark.parametrize("odd", ["2.5", "1_5"], ids=["numpy-syntax", "float-only-syntax"])
def test_read_profile_parses_each_number_as_float_does(tmp_path, odd):
    # a number numpy's parser refuses but float() takes ("1_5") sends the file down the
    # one-row-at-a-time path, which must read the same bits
    rng = np.random.default_rng(3)
    nodes = np.sort(rng.uniform(-3.0, 3.0, 300))
    values = rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300)
    values[::7] = 0.0
    texts = [f"{v:.17g}" for v in values]
    texts[1:4] = ["5e-324", "-0.0", odd]  # a subnormal, a signed zero, and a number float() takes
    rows = [f" {float(x)!r} , {v} " for x, v in zip(nodes, texts)]
    path = tmp_path / "numbers.csv"
    path.write_text("X,f\n" + "\n".join(rows) + "\n")
    prof = read_profile_csv(path)
    expect = np.array([float(v) for v in texts])
    assert np.array_equal(prof.nodes.view(np.int64), nodes.view(np.int64))
    assert np.array_equal(prof.values.view(np.int64), expect.view(np.int64))


def _profiles():
    nodes = np.linspace(-1.2, 1.1, 47)
    return [
        BumpProfile(-1.0, 1.0),
        FunctionProfile(lambda x: np.cos(3.0 * x) + x * x, -1.0, 1.0),
        SampledProfile(nodes, np.sin(2.0 * nodes) * (1.1 - nodes) * (nodes + 1.2)),
    ]


@pytest.mark.parametrize("f", _profiles(), ids=["bump", "function", "sampled"])
def test_all_inside_call_equals_the_masked_path_bitwise(f):
    a, b = f.support
    inside = np.linspace(a, b, 1001)[1:-1]
    inside = np.concatenate([inside, np.nextafter([a, b], [b, a])])  # an ulp inside each edge
    masked = f(np.append(inside, b))  # one point on the edge: the gather-scatter path
    assert masked[-1] == 0.0
    assert np.array_equal(f(inside), masked[:-1])
    grid = inside[:1000].reshape(40, 25)
    assert np.array_equal(f(grid), masked[:1000].reshape(40, 25))
    assert f(inside[3]) == masked[3] and type(f(inside[3])) is float


@pytest.mark.parametrize("func", [lambda x: x, lambda x: 2.5], ids=["argument", "scalar"])
def test_all_inside_call_returns_a_fresh_array_of_the_input_shape(func):
    f = FunctionProfile(func, -1.0, 1.0)
    for xs in (np.linspace(-0.5, 0.5, 7), np.full((2, 3), 0.25)):
        before = xs.copy()
        out = f(xs)
        assert out.shape == xs.shape and out is not xs
        assert not np.shares_memory(out, xs)
        out[...] = 7.0
        assert np.array_equal(xs, before)
        assert np.array_equal(f(xs), np.broadcast_to(func(before), xs.shape))


def _knots(kind, n, rng):
    uniform = np.linspace(-1.3, 2.1, n)
    if kind == "uniform":
        return uniform
    if kind == "jittered":
        return uniform + rng.uniform(-0.3, 0.3, n) * (uniform[1] - uniform[0])
    return np.sinh(2.0 * np.linspace(-0.8, 1.1, n))  # spacing grows 5x across the span


@pytest.mark.parametrize("kind", ["uniform", "jittered", "graded"])
def test_sampled_profile_is_scipys_natural_spline(kind):
    CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
    rng = np.random.default_rng(26)
    for n in (4, 5, 7, 12, 40, 121, 333, 700):
        nodes = _knots(kind, n, rng)
        values = rng.uniform(0.5, 2.0) * np.exp(-nodes * nodes) * (1.0 + 0.3 * np.sin(5.0 * nodes))
        prof = SampledProfile(nodes, values)
        theirs = CubicSpline(nodes, values, bc_type="natural", extrapolate=False)
        # the end knots are the support's edges, where the profile is clamped to 0
        xs = np.concatenate([nodes[1:-1], rng.uniform(nodes[0], nodes[-1], 3000)])
        assert np.max(np.abs(prof(xs) - theirs(xs))) <= 1e-15 * np.max(np.abs(values))


def test_interval_lookup_is_searchsorted_right_at_and_beside_every_knot():
    rng = np.random.default_rng(7)
    for nodes in (np.linspace(-1.0, 1.0, 101), np.cumsum(rng.uniform(0.01, 1.0, 500)) - 3.0):
        prof = SampledProfile(nodes, np.cos(nodes))
        xs = np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])
        expect = np.searchsorted(nodes, xs, side="right") - 1
        expect[xs == nodes[-1]] = len(nodes) - 2  # the last knot closes the last interval
        expect[xs > nodes[-1]] = -1
        assert np.array_equal(prof._interval(xs), expect)


def test_sampled_profile_is_exactly_zero_between_node_span_and_wider_support():
    nodes = np.linspace(-1.0, 1.0, 41)
    prof = SampledProfile(nodes, 1.0 + nodes * nodes, support=(-2.0, 2.5))
    outside = np.array([-1.99, -1.5, np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0), 1.7, 2.49])
    out = prof(outside)
    assert out.tolist() == [0.0] * len(outside)
    assert not np.signbit(out).any()
    assert prof(np.array([-1.0, 1.0])).tolist() == [2.0, 2.0]
