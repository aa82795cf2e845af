"""Guards on single limit-set decisions, checked on their own.

`_node_points` decides, for each node of the traversal, which chart its
candidates take, whether it emits a point and which point.  The tests here
state that rule in plain Python and check the vectorised code against it
on every assignment of candidates to "fits chart 0 only", "fits chart 1
only" and "fits both", for 3 and 4 candidates.  `plane_values` projects a
cloud to the plane and keeps the points within a radius; its bytes are
pinned by digest on a computed cloud and on a handmade one with points at
or past infinity.  `check_window` decides whether a window can be drawn:
its bounds and also its width and height must be finite.
`circle_deviation` and `box_dimension` decide whether enough points lie in
their windows, and raise `SparseWindowError` when too few do, which the
CLI takes as "print no line".
"""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from kleinnet.errors import LimitSetError, SparseWindowError
from kleinnet.limitset import (
    MIN_BOX_POINTS,
    MIN_CIRCLE_POINTS,
    WINDOW_RADIUS,
    LimitPointCloud,
    _node_points,
    box_dimension,
    check_window,
    circle_deviation,
    enumerate_limit_set,
    from_traces,
)
from test_cli import run_module

# the classes a candidate may fall in: fits chart 0 only, chart 1 only, both
ONLY0, ONLY1, BOTH = range(3)


def _candidate(cls: int, rng: random.Random) -> tuple[complex, complex]:
    """Homogeneous coordinates (u, v) of a candidate in class cls.  It fits
    chart 0 when |u| <= 2|v| and chart 1 when |v| <= 2|u|; the ratios are
    kept well away from those bounds."""
    w = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    w = w / abs(w) * (rng.uniform(0.05, 0.4) if cls != BOTH else rng.uniform(0.6, 1.6))
    u, v = {ONLY0: (w, 1.0), ONLY1: (1.0, w), BOTH: (w, 1.0)}[cls]
    s = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    return u * s, v * s


def _expected(cands, eps2: float, at_floor: bool):
    """The rule of one node in plain Python: the node takes chart 0 when
    all its candidates fit chart 0, else when not all fit chart 1 and at
    least half fit chart 0; otherwise chart 1.  It emits when all its
    candidates fit one chart and their squared diameter in the chart it
    takes is below eps2, and always at the depth floor.  The point is the
    centroid of the candidates that fit the chart it takes."""
    k = len(cands)
    fits0 = [abs(u) <= 2.0 * abs(v) for u, v in cands]
    fits1 = [abs(v) <= 2.0 * abs(u) for u, v in cands]
    c0, c1 = sum(fits0), sum(fits1)
    use0 = c0 == k or (c1 != k and 2 * c0 >= k)
    z = [u / v if use0 else v / u for u, v in cands]
    diam2 = max(abs(p - q) ** 2 for p, q in itertools.combinations(z, 2))
    emit = at_floor or ((c0 == k or c1 == k) and diam2 < eps2)
    inside = [x for x, f in zip(z, fits0 if use0 else fits1) if f]
    return emit, sum(inside) / len(inside), 0 if use0 else 1, diam2


@pytest.mark.parametrize("at_floor", [False, True], ids=["open", "floor"])
@pytest.mark.parametrize("k", [3, 4])
def test_node_points_follow_the_chart_rule(k, at_floor):
    rng = random.Random(k)
    nodes = [
        [_candidate(cls, rng) for cls in classes]
        for classes in itertools.product((ONLY0, ONLY1, BOTH), repeat=k)
    ]
    assert len(nodes) == 3**k
    # axes (u or v, re/im, candidate, node)
    uv = np.array(
        [[[[c[j].real for c in node] for node in nodes],
          [[c[j].imag for c in node] for node in nodes]] for j in (0, 1)]
    ).swapaxes(2, 3)
    # a threshold in the widest gap between the middle half of the
    # diameters of the nodes whose candidates all fit one chart, so that
    # some of them emit and some do not, none of them near the bound
    ranked = sorted(
        _expected(node, 0.0, False)[3]
        for node, classes in zip(nodes, itertools.product(range(3), repeat=k))
        if set(classes) <= {ONLY0, BOTH} or set(classes) <= {ONLY1, BOTH}
    )
    gaps = list(zip(ranked, ranked[1:]))[len(ranked) // 4:3 * len(ranked) // 4]
    low, high = max(gaps, key=lambda pair: pair[1] / pair[0])
    assert high > 1.01 * low
    eps2 = math.sqrt(low * high)
    for threshold in (0.0, eps2, math.inf):
        expected = [_expected(node, threshold, at_floor) for node in nodes]
        emit, points = _node_points(uv, threshold, at_floor)
        assert emit.tolist() == [e[0] for e in expected]
        want = [e for e in expected if e[0]]
        if not want:
            assert points is None
            continue
        (re, im), chart = points
        assert chart.tolist() == [e[2] for e in want]
        for x, y, e in zip(re, im, want):
            assert abs(complex(x, y) - e[1]) <= 1e-12 * abs(e[1])
    if not at_floor:
        # the rule reaches every branch: both charts, emitting or not
        expected = [_expected(node, eps2, False) for node in nodes]
        assert {(e[0], e[2]) for e in expected} == {
            (True, 0), (True, 1), (False, 0), (False, 1)
        }


# -- projection to the plane -------------------------------------------------

RADII = [2.2, 4.0, math.inf]

# sha256 of plane_values(r).tobytes() of the 3+0.5i,3 cloud at eps 1e-3
PERTURBED_DIGESTS = {
    2.2: "3e7e62272f37803b256b4eeb980dc12ef3bc252c4e00910ec0d2e2173f969ab0",
    4.0: "58f561b64f28f138b7e2497f26da355165f8150413d6c4f39f1fd3444359fd99",
    math.inf: "b563f46f1d1d127f491fe5db7049226f93c6d7857aef60e5870682552f2e0592",
}

# a chart-1 zero (infinity), a chart-1 value whose inverse overflows, and
# chart-0 points outside the smaller radii
HANDMADE = (
    [0.5 + 0.5j, 3 + 0j, 10j, -2.2 + 0j, 0j, 1e-310 + 0j, 0.25 + 0j, 1j, 0.5 - 0.5j],
    [0, 0, 0, 0, 1, 1, 1, 1, 1],
)
HANDMADE_KEPT = {
    2.2: [0.5 + 0.5j, -2.2, -1j, 1 + 1j],
    4.0: [0.5 + 0.5j, 3, -2.2, 4, -1j, 1 + 1j],
    math.inf: [0.5 + 0.5j, 3, 10j, -2.2, 4, -1j, 1 + 1j],
}
HANDMADE_DIGESTS = {
    2.2: "0e31ffd23e47764555ca2078cd359153d74d8e816df3953bdedabd0814ebbe14",
    4.0: "996b3757ac028a2a9973e6915affb0a5d7e2d9da96e16e315d9f3fdc3e5bd714",
    math.inf: "b1827d90e6e8b4c005440854818c18978bfd16734cf57136c724b6c801c1e46e",
}


def _digest(z: np.ndarray) -> str:
    return hashlib.sha256(z.tobytes()).hexdigest()


def test_plane_values_digests_of_a_computed_cloud():
    cloud = enumerate_limit_set(from_traces(complex(3.0, 0.5), 3.0), epsilon=1e-3)
    assert len(cloud) == 4386
    for r in RADII:
        assert _digest(cloud.plane_values(r)) == PERTURBED_DIGESTS[r]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("radius", RADII)
def test_plane_values_drop_points_at_and_past_infinity(radius):
    values, charts = HANDMADE
    cloud = LimitPointCloud(np.array(values), np.array(charts, np.int8), 1e-3, 30)
    z = cloud.plane_values(radius)
    assert z.tolist() == HANDMADE_KEPT[radius]
    assert _digest(z) == HANDMADE_DIGESTS[radius]


def _ring(n_in: int, n_out: int) -> LimitPointCloud:
    """n_in points on the circle |z| = 2, inside WINDOW_RADIUS, and n_out
    on |z| = 8, outside it."""
    assert 2.0 < WINDOW_RADIUS < 8.0
    turns = [np.exp(2j * np.pi * np.arange(n) / n) for n in (n_in, n_out)]
    values = np.concatenate([2.0 * turns[0], 8.0 * turns[1]])
    return LimitPointCloud(values, np.zeros(len(values), np.int8), 1e-3, 30)


def test_statistics_count_only_the_points_in_their_window():
    # the points past the window do not make up for the missing ones
    with pytest.raises(SparseWindowError, match="points in the window"):
        circle_deviation(_ring(MIN_CIRCLE_POINTS - 1, 5000), WINDOW_RADIUS)
    with pytest.raises(SparseWindowError, match="points in the window"):
        box_dimension(_ring(MIN_BOX_POINTS - 1, 5000))
    assert circle_deviation(_ring(MIN_CIRCLE_POINTS, 5000), WINDOW_RADIUS) <= 1e-12
    assert box_dimension(_ring(MIN_BOX_POINTS, 5000)) > 0.0
    # an infinite radius takes every point
    assert circle_deviation(_ring(MIN_CIRCLE_POINTS - 1, 1), math.inf) > 0.1


# -- windows ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "window", [(-1e308, 1e308, -1.0, 1.0), (-1.0, 1.0, -1e308, 1e308)], ids=["re", "im"]
)
def test_window_with_an_overflowing_span_is_refused(window):
    with pytest.raises(LimitSetError, match="width and height must be finite"):
        check_window(window)
    # half those bounds span 1e308, which does not overflow
    assert check_window([w / 2.0 for w in window]) == tuple(w / 2.0 for w in window)


def test_limitset_refuses_an_overflowing_window_span(tmp_path):
    out_path = tmp_path / "X.ppm"
    code, out, err = run_module(
        "limitset", "--traces", "3,3", "--window=-1e308,1e308,-1,1", "--out", str(out_path)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: window") and "Traceback" not in err
    assert not out_path.exists()
