import hashlib
import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinnet import limitset
from kleinnet.errors import ElementaryGroupError, LimitSetError, RepresentationError
from kleinnet.limitset import (
    DEFAULT_CAP,
    DEFAULT_MAX_DEPTH,
    MAX_CAP,
    MAX_DEPTH,
    LimitPointCloud,
    box_dimension,
    circle_deviation,
    cloud_group_invariance,
    enumerate_limit_set,
    format_cloud_csv,
    from_traces,
    render,
    write_cloud_csv,
)
from kleinnet.limitset import _Nearest, _attracting_eigvec, _lift
from kleinnet.sl2 import (
    Matrix2C,
    make_rep,
    parse_rep_text,
    random_loxodromic,
    random_sl2,
)
from test_cli import _env_with_src
from test_qnet import _plain_cpu_env

FUCHSIAN = from_traces(3, 3, 3)
# complex perturbation of the (3,3,3) triple, z re-solved from the relation;
# the cloud leaves the real line and picks up box dimension
PERTURBED = from_traces(complex(3.0, 0.5), 3.0)


def synthetic_circle(n=10000, radius=1.0):
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    z = radius * np.exp(1j * theta)
    return LimitPointCloud(
        z.astype(np.complex128), np.zeros(n, np.int8), 1e-3, 30
    )


# -- sphere points -----------------------------------------------------------

# infinity as a (chart value, chart) pair
INFINITY = (0j, 1)


def _chart(z):
    """The plane point z as a (chart value, chart) pair: z itself in chart 0
    inside the unit disc, else 1/z in chart 1."""
    return (z, 0) if abs(z) <= 1.0 else (1.0 / z, 1)


def _chordal(p, q):
    """Chordal distance between two (chart value, chart) pairs."""
    lifts = _lift(np.array([p[0], q[0]]), np.array([p[1], q[1]]))
    return float(np.linalg.norm(lifts[:, 0] - lifts[:, 1]))


def test_sphere_point_charts():
    # a point lifts to the same sphere point from either chart
    for z in (0.5 + 0.25j, 1.0 + 0j, 4.0 + 0j, -3.0 - 7.5j):
        assert _chordal((z, 0), (1.0 / z, 1)) <= 1e-15
    # 0 lifts to the south pole; chart 1 holds infinity at 0, the north pole
    assert _lift(np.array([0j, 0j]), np.array([0, 1])).T.tolist() == [
        [0.0, 0.0, -0.5], [0.0, 0.0, 0.5]
    ]


def test_sphere_lift_has_radius_half():
    rng = np.random.default_rng(4)
    points = [
        _chart(complex(rng.normal(0, 3), rng.normal(0, 3))) for _ in range(50)
    ]
    values, charts = zip(*points)
    radii = np.linalg.norm(_lift(np.array(values), np.array(charts)), axis=0)
    assert np.abs(radii - 0.5).max() <= 1e-12
    assert _lift(np.array([0j]), np.array([1])).T.tolist() == [[0.0, 0.0, 0.5]]


def test_chordal_metric():
    zero = _chart(0j)
    assert abs(_chordal(zero, INFINITY) - 1.0) <= 1e-15  # antipodes
    assert _chordal(zero, zero) == 0.0
    one = _chart(1.0 + 0j)
    assert _chordal(zero, one) == _chordal(one, zero)
    # the same sphere point written in both charts
    assert _chordal((1.0 + 0j, 0), (1.0 + 0j, 1)) <= 1e-15


# -- groups --------------------------------------------------------------------


def test_group_spec_validation():
    a = Matrix2C.diagonal(2.0, 0.5)
    with pytest.raises(RepresentationError):
        make_rep([])
    with pytest.raises(LimitSetError, match="one or two generators"):
        enumerate_limit_set(make_rep([a, a, a]))
    for minus_or_plus in (Matrix2C.identity(), Matrix2C(-1.0, 0.0, 0.0, -1.0)):
        with pytest.raises(LimitSetError, match="every point is fixed: generator 2"):
            enumerate_limit_set(make_rep([a, minus_or_plus]))


def test_trace_triple_construction():
    a, b = from_traces(3, 3, 3).images
    ab = a @ b
    assert abs(a.trace - 3.0) <= 1e-12
    assert abs(b.trace - 3.0) <= 1e-12
    assert abs(ab.trace - 3.0) <= 1e-9
    comm = a @ b @ a.inverse() @ b.inverse()
    assert abs(comm.trace + 2.0) <= 1e-9


def test_trace_triple_solves_z():
    # x = y = 3: the relation gives z in {3, 6}; default takes modulus 6
    a, b = from_traces(3, 3).images
    assert abs((a @ b).trace - 6.0) <= 1e-9
    a, b = from_traces(3, 3, other_root=True).images
    assert abs((a @ b).trace - 3.0) <= 1e-9


def test_trace_triple_rejects_bad_relation():
    with pytest.raises(LimitSetError, match="xyz"):
        from_traces(3, 3, 4)
    with pytest.raises(LimitSetError):
        from_traces(3, 3, 3, other_root=True)
    # off by 3e-8, far above the rounding error of the relation at (3, 3, 6)
    with pytest.raises(LimitSetError, match="xyz"):
        from_traces(3, 3, 6.00000001)


def _from_traces_cases():
    """Seeded real and complex (x, y) pairs with both roots of z (some
    imaginary parts +0.0 or -0.0), and triples given whole."""
    rng = random.Random(20261019)
    cases = []
    for _ in range(60):
        x, y = rng.uniform(2.05, 8.0), rng.uniform(2.05, 8.0)
        cases += [((x, y), False), ((x, y), True)]
    for _ in range(60):
        x = complex(rng.uniform(2.05, 8.0), rng.uniform(-1.0, 1.0))
        y_re = rng.uniform(2.05, 8.0)
        y = complex(y_re, rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0))))
        cases += [((x, y), False), ((x, y), True)]
    for z in (3, complex(3.0, -0.0), complex(3.0, 0.0), 6):
        cases.append(((3, 3, z), False))
    cases.append(((6, 3, 15), False))
    return cases


def test_from_traces_generator_digest():
    # float.hex of every real and imaginary part of both generators: pins
    # the bits of the solved root and of b's eigenvalue mu
    lines = []
    for args, other_root in _from_traces_cases():
        rep = from_traces(*args, other_root=other_root)
        parts = [p for m in rep.images for e in m.entries() for p in (e.real, e.imag)]
        lines.append(" ".join(map(float.hex, parts)))
    assert len(lines) == 245
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "e2ce63be1ea24d95709d3446ca5046824d1b3619003354013d847fea8866fdb1"
    )


# -- enumeration ---------------------------------------------------------------


def test_elliptic_generators_are_refused_first():
    # refused before the rank and identity checks, with the CLI's message
    elliptic = Matrix2C(0.0, 1.0, -1.0, 0.0)
    loxodromic = Matrix2C.diagonal(2.0, 0.5)
    reps = [
        (from_traces(1.3, 3), 1),
        (from_traces(0, 0), 1),
        (make_rep([loxodromic, elliptic]), 2),
        (make_rep([elliptic]), 1),
        (make_rep([loxodromic, loxodromic, elliptic]), 3),
        (make_rep([Matrix2C.identity(), elliptic]), 2),
    ]
    for rep, i in reps:
        with pytest.raises(LimitSetError) as info:
            enumerate_limit_set(rep)
        assert str(info.value) == (
            f"generator {i} is elliptic: the limit-set search needs "
            "loxodromic or parabolic generators"
        )


def test_single_generator_is_elementary():
    rep = make_rep([Matrix2C.diagonal(math.e, 1.0 / math.e)])
    with pytest.raises(ElementaryGroupError, match="elementary"):
        enumerate_limit_set(rep)
    # fixed points come first: a generator within the classify tolerance of
    # the identity is refused as such, not as elementary
    near_identity = make_rep([Matrix2C(1.0, 1e-10, 0.0, 1.0)])
    with pytest.raises(LimitSetError, match="every point is fixed"):
        enumerate_limit_set(near_identity)


def test_shared_fixed_point_is_elementary():
    rep = make_rep(
        [Matrix2C.diagonal(math.e, 1.0 / math.e), Matrix2C(1.0, 1.0, 0.0, 1.0)]
    )
    with pytest.raises(ElementaryGroupError, match="elementary"):
        enumerate_limit_set(rep)


def _upper_triangular(rng, parabolic):
    """An upper-triangular unimodular matrix, which fixes infinity: a
    parabolic with diagonal +/-1, else a loxodromic."""
    if parabolic:
        mu = 1.0 if rng.random() < 0.5 else -1.0
    else:
        mu = np.exp(complex(rng.uniform(0.2, 1.5), rng.uniform(0.0, 2.0 * math.pi)))
    return Matrix2C(mu, complex(rng.normal(), rng.normal()), 0.0, 1.0 / mu)


def _is_elementary(a, b):
    try:
        enumerate_limit_set(make_rep([a, b]), max_depth=1)
    except ElementaryGroupError:
        return True
    return False


@pytest.mark.parametrize("spread", [1.0, 10.0])
def test_elementary_exactly_when_a_fixed_point_is_shared(spread):
    # conjugates of two upper-triangular matrices share the fixed point g(oo),
    # as do a parabolic and a loxodromic built that way; two independent
    # random loxodromics share none
    rng = np.random.default_rng(23)
    for i in range(300):
        g = random_sl2(rng, spread)
        gi = g.inverse()
        a = g @ _upper_triangular(rng, i % 2 == 0) @ gi
        b = g @ _upper_triangular(rng, False) @ gi
        assert _is_elementary(a, b) and _is_elementary(b, a)
        c, d = random_loxodromic(rng, spread), random_loxodromic(rng, spread)
        assert not _is_elementary(c, d)


def test_large_markov_traces_are_not_elementary():
    # the relation's terms grow like x^4, so its rounding error passes any
    # absolute tolerance: x = y = 50, 50.1, ..., 199.9 are all accepted; and
    # tr[a,b] = -2 for every Markov triple, however close the generators'
    # fixed points come, so each integer x enumerates
    for tenths in range(500, 2000):
        rep = from_traces(tenths / 10.0, tenths / 10.0)
        if tenths % 10 == 0:
            assert len(enumerate_limit_set(rep, epsilon=1e-2, max_depth=1)) > 0


def test_enumerate_validates_parameters():
    with pytest.raises(LimitSetError):
        enumerate_limit_set(FUCHSIAN, epsilon=0.0)
    with pytest.raises(LimitSetError):
        enumerate_limit_set(FUCHSIAN, max_depth=0)
    with pytest.raises(LimitSetError):
        enumerate_limit_set(FUCHSIAN, cap=0)


def test_fuchsian_cloud_shape():
    cloud = enumerate_limit_set(FUCHSIAN, epsilon=1e-3)
    assert 2000 <= len(cloud) <= 6000
    assert not cloud.truncated
    assert cloud.epsilon == 1e-3
    # sorted by (re, im, chart)
    keys = list(zip(cloud.values.real, cloud.values.imag, cloud.charts))
    assert keys == sorted(keys)
    assert np.all(np.isfinite(cloud.values.real))
    # real trace triple: the cloud stays on the real line
    assert float(np.abs(cloud.values.imag).max()) <= 1e-9


def test_epsilon_refinement_strictly_increases_points():
    sizes = [
        len(enumerate_limit_set(FUCHSIAN, epsilon=eps))
        for eps in (4e-3, 2e-3, 1e-3)
    ]
    assert sizes[0] < sizes[1] < sizes[2]


def test_cap_truncates():
    cloud = enumerate_limit_set(FUCHSIAN, epsilon=1e-3, cap=100)
    assert len(cloud) == 100
    assert cloud.truncated


def test_cap_over_the_budget_is_refused_before_the_search(monkeypatch):
    assert MAX_CAP >= DEFAULT_CAP

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr("kleinnet.limitset._traverse", no_search)
    with pytest.raises(LimitSetError, match=f"at most {MAX_CAP}, got {MAX_CAP + 1}"):
        enumerate_limit_set(FUCHSIAN, cap=MAX_CAP + 1)
    with pytest.raises(AssertionError, match="search ran"):
        enumerate_limit_set(FUCHSIAN, cap=MAX_CAP)


def test_depth_over_the_budget_is_refused_before_the_search(monkeypatch):
    assert MAX_DEPTH >= DEFAULT_MAX_DEPTH

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr("kleinnet.limitset._traverse", no_search)
    with pytest.raises(LimitSetError, match=f"MAX_DEPTH = {MAX_DEPTH}, got {MAX_DEPTH + 1}"):
        enumerate_limit_set(FUCHSIAN, max_depth=MAX_DEPTH + 1)
    with pytest.raises(AssertionError, match="search ran"):
        enumerate_limit_set(FUCHSIAN, max_depth=MAX_DEPTH)


def _quot(z, s):
    # CPython 3.11's complex / float, spelled out so the reference does not
    # depend on the interpreter version
    return complex((z.real + z.imag * 0.0) / s, (z.imag - z.real * 0.0) / s)


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def reference_points(rep, epsilon, max_depth):
    """Scalar depth-first twin of the traversal, one node at a time with
    Python complex numbers: the sorted (re, im, chart) points."""
    a, b = rep.images
    mats = [m.entries() for m in (a, a.inverse(), b, b.inverse())]
    fixes = [_attracting_eigvec(m) for m in (a, a.inverse(), b, b.inverse())]
    out = []

    def emit(cands, at_floor):
        fits0 = [_abs2(u) <= 4.0 * _abs2(v) for u, v in cands]
        fits1 = [_abs2(v) <= 4.0 * _abs2(u) for u, v in cands]
        uniform = all(fits0) or all(fits1)
        if not (uniform or at_floor):
            return False
        use0 = all(fits0) if uniform else 2 * sum(fits0) >= len(cands)
        zs = []
        for (u, v), f0, f1 in zip(cands, fits0, fits1):
            p, q = (u, v) if use0 else (v, u)
            if f0 if use0 else f1:
                d = _abs2(q)
                zs.append(complex((p.real * q.real + p.imag * q.imag) / d,
                                  (p.imag * q.real - p.real * q.imag) / d))
        diam2 = max(
            (z - w).real * (z - w).real + (z - w).imag * (z - w).imag
            for i, z in enumerate(zs) for w in zs[i + 1:]
        )
        if not at_floor and diam2 >= epsilon * epsilon:
            return False
        cr = ci = 0.0
        for z in zs:
            cr += z.real
            ci += z.imag
        out.append((cr / len(zs), ci / len(zs), 0 if use0 else 1))
        return True

    def normalized(m):
        s = max(abs(z.real) + abs(z.imag) for z in m)
        return tuple(_quot(z, s) for z in m)

    if emit(fixes, False):
        return out
    stack = [(normalized(mats[h]), h, 1) for h in reversed(range(4))]
    while stack:
        m, last, depth = stack.pop()
        nxt = [h for h in range(4) if h != last ^ 1]
        cands = [(m[0] * fixes[h][0] + m[1] * fixes[h][1],
                  m[2] * fixes[h][0] + m[3] * fixes[h][1]) for h in nxt]
        if emit(cands, depth >= max_depth):
            continue
        for h in reversed(nxt):
            g = mats[h]
            child = (m[0] * g[0] + m[1] * g[2], m[0] * g[1] + m[1] * g[3],
                     m[2] * g[0] + m[3] * g[2], m[2] * g[1] + m[3] * g[3])
            stack.append((normalized(child), h, depth + 1))
    return sorted(out)


def _hex_points(points):
    return [(re.hex(), im.hex(), chart) for re, im, chart in points]


def test_traversal_matches_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    cases = [(FUCHSIAN, 4e-3, 30), (PERTURBED, 8e-3, 30)]
    cases += [
        (make_rep([random_loxodromic(rng), random_loxodromic(rng)]), 2e-2, depth)
        for depth in (1, 2, 3, 4, 5, 6) * 3
    ]
    for rep, eps, depth in cases:
        cloud = enumerate_limit_set(rep, epsilon=eps, max_depth=depth)
        got = zip(cloud.values.real.tolist(), cloud.values.imag.tolist(),
                  cloud.charts.tolist())
        assert _hex_points(got) == _hex_points(reference_points(rep, eps, depth))


def _point_set(cloud):
    return set(zip(cloud.values.tolist(), cloud.charts.tolist()))


def test_cap_truncates_exactly_when_full_run_exceeds_it():
    full = enumerate_limit_set(FUCHSIAN, epsilon=4e-3)
    at_cap = enumerate_limit_set(FUCHSIAN, epsilon=4e-3, cap=len(full))
    assert not at_cap.truncated
    assert np.array_equal(at_cap.values, full.values)
    assert np.array_equal(at_cap.charts, full.charts)
    below = enumerate_limit_set(FUCHSIAN, epsilon=4e-3, cap=len(full) - 1)
    assert below.truncated
    assert len(below) == len(full) - 1


def test_truncated_run_keeps_points_of_the_full_run():
    full = _point_set(enumerate_limit_set(PERTURBED, epsilon=2e-3))
    for cap in (1, 3, 100, 1000):
        cloud = enumerate_limit_set(PERTURBED, epsilon=2e-3, cap=cap)
        assert len(cloud) == cap and cloud.truncated
        assert _point_set(cloud) <= full


def test_cap_bounds_a_deep_parabolic_run():
    # parabolic generators: near the cusps branches run to the depth floor,
    # so the frontier would grow without the cap
    rep = from_traces(2, 2)
    cloud = enumerate_limit_set(rep, epsilon=1e-14, max_depth=300, cap=50)
    assert len(cloud) == 50
    assert cloud.truncated


# (max_depth, sha256 of values.tobytes(), sha256 of charts.tobytes()) of the
# capped cloud of from_traces(2, 2) at epsilon 1e-14 and cap 50: a narrow
# frontier that runs to the depth floor near the cusps
DEEP_NARROW = [
    (
        300,
        "c9f9b2d28366878f1503f6a3ba2c66a52e76107e85408223c15be2af4404fdaf",
        "cc2786e1f9910a9d811400edcddaf7075195f7a16b216dcbefba3bc7c4f2ae51",
    ),
    (
        2000,
        "607dec7b943cd8ccad13779297b0c724b30d5668cc9df3e2dbb727ac750d1d11",
        "cc2786e1f9910a9d811400edcddaf7075195f7a16b216dcbefba3bc7c4f2ae51",
    ),
]


@pytest.mark.parametrize("depth,values_sha,charts_sha", DEEP_NARROW)
def test_deep_narrow_cloud_digests(depth, values_sha, charts_sha):
    cloud = enumerate_limit_set(from_traces(2, 2), epsilon=1e-14, max_depth=depth, cap=50)
    got = (
        hashlib.sha256(cloud.values.tobytes()).hexdigest(),
        hashlib.sha256(cloud.charts.tobytes()).hexdigest(),
    )
    assert got == (values_sha, charts_sha)


def test_enumeration_is_deterministic():
    a = enumerate_limit_set(FUCHSIAN, epsilon=2e-3)
    b = enumerate_limit_set(FUCHSIAN, epsilon=2e-3)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.charts, b.charts)


def _tied_arrays(rng, n):
    """re, im and chart arrays with forced ties: 0.0 against -0.0, NaNs,
    equal (re, im) in both charts, and full duplicates."""
    pool = np.array([0.0, -0.0, 1.5, -1.5, np.nan, np.inf, -np.inf, 5e-324])
    re = np.where(rng.random(n) < 0.4, rng.choice(pool, n), rng.normal(size=n))
    im = np.where(rng.random(n) < 0.4, rng.choice(pool, n), rng.normal(size=n))
    charts = rng.integers(0, 2, n)
    # equal (re, im) in the other chart, and full duplicates
    src, dst = rng.integers(0, n, (2, n // 4))
    re[dst], im[dst] = re[src], im[src]
    src, dst = rng.integers(0, n, (2, n // 8))
    re[dst], im[dst], charts[dst] = re[src], im[src], charts[src]
    return re, im, charts


@pytest.mark.parametrize("seed", range(5))
def test_cloud_order_is_the_lexsort_order(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 17, 1000, 20000):
        re, im, charts = _tied_arrays(rng, n)
        expected = np.lexsort((charts, im, re))
        assert np.array_equal(limitset._cloud_order(re, im, charts), expected)
        cloud = limitset._make_cloud(re, im, charts, 1e-3, 30, False)
        assert np.array_equal(cloud.values.real, re[expected], equal_nan=True)
        assert np.array_equal(np.signbit(cloud.values.real), np.signbit(re[expected]))
        assert np.array_equal(cloud.values.imag, im[expected], equal_nan=True)
        assert np.array_equal(np.signbit(cloud.values.imag), np.signbit(im[expected]))
        assert np.array_equal(cloud.charts, charts[expected].astype(np.int8))


def test_cloud_is_group_invariant():
    for rep in (FUCHSIAN, PERTURBED):
        cloud = enumerate_limit_set(rep, epsilon=1e-3)
        assert cloud_group_invariance(cloud, rep) < 5e-3


# two loxodromics with multipliers 1.5 and 1.4+0.3i (the mixed-chart group of
# test_golden.py)
MIXED_CHART = make_rep(parse_rep_text("""\
a 0.8123728608220304,0.0 0.041237201056955816,0.0 -0.041237201056955844,0.0 1.2288685914972843,0.0
b 1.1761106089186535,0.1178249649092908 0.06900797527159591,0.04117377857387757 0.06900797527159591,0.04117377857387758 0.8448723276149932,-0.07980917224532155
"""))


def _cloud_digest(cloud):
    return (
        hashlib.sha256(cloud.values.tobytes()).hexdigest(),
        hashlib.sha256(cloud.charts.tobytes()).hexdigest(),
        cloud.truncated,
    )


# (cap, sha256 of values.tobytes(), sha256 of charts.tobytes(), truncated) of
# from_traces(3, 3, 3) at epsilon 1e-4, whose uncapped cloud has 34,162
# points: caps that cut the first levels, cut inside a level chunk, and sit
# one below and at the full count
CAPPED_333 = [
    (1, "3a39d81ebefa3777117c789dc8a9158f70ad6f143b30de82f9298cb740c42694",
     "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a", True),
    (2, "40554fe064ff5e9da5b67ed556fa302b38b3e30ae06e75e6e21387182de4d6e8",
     "9dcf97a184f32623d11a73124ceb99a5709b083721e878a16d78f596718ba7b2", True),
    (3, "f02ba994041527b2f0e1bc406019e8b70b0a7bc17af79c11eab78261a69acbdd",
     "75c8fd04ad916aec3e3d5cb76a452b116b3d4d0912a0a485e9fb8e3d240e210c", True),
    (4, "158b384dc81a7a78ff8d3fe8afd2a020320933b587697354fd8373fc5b78903c",
     "27ecd0a598e76f8a2fd264d427df0a119903e8eae384e478902541756f089dd1", True),
    (50, "b1a08bf88ec873c7f454ca7a989083ee7c59864eacc5c465bebb4d2044a35fcf",
     "9df8bff0a706340db1c6eda55d6b44cec40065c45253fc541a5a094f17b57d84", True),
    (999, "692e303d1f07f237fd644567fb88713f13f7f7c48100a93f45dbca95ede04c67",
     "5418ef66c9eb92092506bb6b16c100c9360f44c05cae9f01b58c79527a5ac27c", True),
    (1000, "dcc40dc3306bbd2183bd8f11fe60d3ce638ed85696800f60380e946238cbe2df",
     "8fa987f1af6f47adb66d1c18eb35596e8cde6e429adf493df0edb482ea090ddf", True),
    (1001, "89b9408e5ccdad1f9a50fae14aa4911321a5003ec5711b0662cc05b76abc08bc",
     "e04a3e49210a5aa80387b9da8e026fe5d743d84022d704837d18075ea364bb13", True),
    (30000, "1b6a1e0e6bd3b300982389c1d51307c9a068ae3cc02ca31d2d063253d96cc5bf",
     "df5201f921f8c8b0d0f1a766ce3ba8b0a4572a4f45c65d269641b324113c73fc", True),
    (34161, "2ed5b616cce89aa19135d7a4e22d728a82929689c722c5623fa8df31930724c5",
     "cba97d91dae8d13690468f6999bfaab90ff46b685f9de26aedbbb6e371e77dce", True),
    (34162, "cdd06903aae140e770e6f7605a787064826729c93f857c0157c8607f95991a9d",
     "c09f16db4a6e51da4fe2a113984ffbd7dc58ba3c9d1d4c5bcf8d4d246f50362c", False),
]


@pytest.mark.parametrize("cap,values_sha,charts_sha,truncated", CAPPED_333)
def test_capped_cloud_digests(cap, values_sha, charts_sha, truncated):
    cloud = enumerate_limit_set(from_traces(3, 3, 3), epsilon=1e-4, cap=cap)
    assert len(cloud) == min(cap, 34162)
    assert _cloud_digest(cloud) == (values_sha, charts_sha, truncated)


@pytest.mark.parametrize("max_depth", [2, 3, 4])
def test_truncated_exactly_when_the_cap_binds(max_depth):
    # at eps 1e-4 every node runs to the depth floor, where a level cut to
    # the cap has no children left to show that it was cut
    rep = from_traces(3, 3, 3)
    full = len(enumerate_limit_set(rep, epsilon=1e-4, max_depth=max_depth))
    assert full == 4 * 3 ** (max_depth - 1)
    for cap in range(1, full + 2):
        cloud = enumerate_limit_set(rep, epsilon=1e-4, max_depth=max_depth, cap=cap)
        assert (len(cloud), cloud.truncated) == (min(cap, full), cap < full)


def test_capped_mixed_chart_cloud_digest():
    # many levels are cut to the cap here, each in several level chunks
    cloud = enumerate_limit_set(MIXED_CHART, epsilon=5e-3, cap=20000)
    assert _cloud_digest(cloud) == (
        "6563f18ca1bc74b0447a59dd6b4655a41764f162fa38ff710b2feb5024439375",
        "28b4f41a7f3ee6d8cc87272db6e09c6d3566551fd4d18702b041a21658272a85",
        True,
    )


# from_traces(0, 0) is a finite group, so enumerate_limit_set refuses its
# elliptic generators; this is the cloud the traversal gives it at cap 20000:
# 4 distinct points, each repeated about 5,000 times
FINITE_GROUP_CLOUD = LimitPointCloud(
    np.repeat([-1 / 3, -1j / 3, 1j / 3, 1 / 3], [5000, 5001, 4999, 5000]),
    np.zeros(20000, np.int8),
    1e-3,
    30,
    truncated=True,
)

# (representation, enumeration arguments or the cloud itself, repr of the
# invariance), recorded with a scipy cKDTree nearest-neighbour query (the
# PERTURBED values on images whose complex products are spelled out, as
# _image_lifts forms them)
INVARIANCE_GUARD = [
    (FUCHSIAN, {"epsilon": 1e-3}, "0.0045580501105617665"),
    (PERTURBED, {"epsilon": 1e-3}, "0.004878685370349052"),
    (PERTURBED, {"epsilon": 2e-4}, "0.0013293604717729904"),
    (MIXED_CHART, {"max_depth": 3}, "0.23398013211877935"),
    (from_traces(0, 0), FINITE_GROUP_CLOUD, "0.7999999999999999"),
    (MIXED_CHART, {"epsilon": 5e-3, "cap": 20000}, "0.19439189257008074"),
    (FUCHSIAN, {"epsilon": 1e-5, "cap": 100000}, "0.07392611075604565"),
    # a truncated cloud whose images fall far from it
    (from_traces(2, 2), {"epsilon": 1e-6, "cap": 20000}, "0.5694620876961545"),
]


@pytest.mark.parametrize("spec,kwargs,expected", INVARIANCE_GUARD)
def test_invariance_matches_recorded_values(spec, kwargs, expected):
    assert repr(cloud_group_invariance(_guard_cloud(spec, kwargs), spec)) == expected


def _guard_cloud(spec, kwargs):
    if isinstance(kwargs, LimitPointCloud):
        return kwargs
    return enumerate_limit_set(spec, **kwargs)


# Prints the repr of the invariance of every INVARIANCE_GUARD case; the tests
# directory is the first argument.
_GUARD_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from kleinnet.limitset import cloud_group_invariance
from test_limitset import INVARIANCE_GUARD, _guard_cloud
for spec, kwargs, _ in INVARIANCE_GUARD:
    print(repr(cloud_group_invariance(_guard_cloud(spec, kwargs), spec)))
"""


def _printed_reprs(script, env):
    proc = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).parent)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_invariance_does_not_depend_on_cpu_kernels():
    default = _printed_reprs(_GUARD_SCRIPT, _env_with_src())
    assert len(default) == len(INVARIANCE_GUARD)
    assert _printed_reprs(_GUARD_SCRIPT, _plain_cpu_env()) == default


# limitset inputs whose stdout, CSV and PPM must not depend on the CPU
# kernels; each runs at the default eps in about 0.2 s
CPU_KERNEL_TRACES = ["3,3,3", "2.2,2.5", "3,3+1i"]


def _limitset_digests(env, tmp_path):
    ppm, csv = tmp_path / "lim.ppm", tmp_path / "lim.csv"
    digests = []
    for traces in CPU_KERNEL_TRACES:
        proc = subprocess.run(
            [
                sys.executable, "-m", "kleinnet", "limitset", "--traces", traces,
                "--out", str(ppm), "--csv", str(csv),
            ],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(tuple(
            hashlib.sha256(data).hexdigest()
            for data in (proc.stdout, csv.read_bytes(), ppm.read_bytes())
        ))
    return digests


def test_limitset_bytes_do_not_depend_on_cpu_kernels(tmp_path):
    default = _limitset_digests(_env_with_src(), tmp_path)
    assert _limitset_digests(_plain_cpu_env(), tmp_path) == default


# (traces, eps) of the clouds whose statistics must not depend on the CPU
# kernels in any bit: the inputs above at the default eps, the benchmark's
# fractal cloud, the perturbed cloud of the goldens and criterion 5, and
# finer clouds of the Fuchsian group, whose fit is the line branch
STATISTICS_CLOUDS = [(traces, limitset.DEFAULT_EPSILON) for traces in CPU_KERNEL_TRACES] + [
    ("3+0.5i,3", 5e-5),
    ("3,3,3", 1e-5),
    ("3+0.5i,3", 1e-3),
    ("3+0.5i,3", 2e-4),
    ("3,3,3", 1e-4),
]

# Prints the repr of circle_deviation at the CLI's default window radius 2.2
# and at 4, and of box_dimension, for every STATISTICS_CLOUDS case; the
# tests directory is the first argument.
_STATISTICS_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from kleinnet.limitset import box_dimension, circle_deviation, enumerate_limit_set, from_traces
from test_limitset import STATISTICS_CLOUDS
for traces, eps in STATISTICS_CLOUDS:
    rep = from_traces(*(complex(t.replace("i", "j")) for t in traces.split(",")))
    cloud = enumerate_limit_set(rep, epsilon=eps)
    for value in (circle_deviation(cloud, 2.2), circle_deviation(cloud, 4.0), box_dimension(cloud)):
        print(repr(value))
"""


def test_statistics_do_not_depend_on_cpu_kernels():
    default = _printed_reprs(_STATISTICS_SCRIPT, _env_with_src())
    assert len(default) == 3 * len(STATISTICS_CLOUDS)
    assert _printed_reprs(_STATISTICS_SCRIPT, _plain_cpu_env()) == default


# -- circle fit and box dimension ----------------------------------------------


def test_circle_fit_exact_synthetic():
    assert circle_deviation(synthetic_circle(2000)) <= 1e-12
    shifted = synthetic_circle(2000)
    vals = (shifted.values * 0.7 + (0.3 - 0.2j)).astype(np.complex128)
    cloud = LimitPointCloud(vals, shifted.charts, 1e-3, 30)
    assert circle_deviation(cloud) <= 1e-12


def test_circle_fit_line_fallback():
    xs = np.linspace(-2.0, 2.0, 500).astype(np.complex128)
    cloud = LimitPointCloud(xs, np.zeros(500, np.int8), 1e-3, 30)
    assert circle_deviation(cloud) <= 1e-12


def test_circle_fit_exact_arc():
    # an off-centre arc, on which no moment of the fit vanishes
    arc = (0.4 - 0.2j) + 1.3 * np.exp(1j * np.linspace(0.3, 2.4, 500))
    cloud = LimitPointCloud(arc, np.zeros(500, np.int8), 1e-3, 30)
    assert circle_deviation(cloud) <= 1e-12


@pytest.mark.parametrize("radius", [1e100, 1e160, 1e-300])
def test_circle_fit_does_not_depend_on_the_scale(radius):
    assert circle_deviation(synthetic_circle(2000, radius), 2.0 * radius) <= 1e-12


# a slanted line through the first quadrant, and a vertical line
@pytest.mark.parametrize("direction,offset", [(complex(0.6, 0.8), 0.1 - 0.3j), (1j, 0.7 + 0j)])
def test_circle_fit_line_branch_off_the_real_axis(direction, offset):
    line = offset + direction * np.linspace(-2.0, 1.5, 700)
    cloud = LimitPointCloud(line, np.zeros(700, np.int8), 1e-3, 30)
    assert circle_deviation(cloud) <= 1e-12
    # points alternately 1e-9 to either side, well inside the collinear
    # test, at a diameter of 3.5; rounding moves the offsets by about 1e-16
    noisy = line + 1e-9j * direction * np.resize([1.0, -1.0], 700)
    cloud = LimitPointCloud(noisy, np.zeros(700, np.int8), 1e-3, 30)
    deviation = circle_deviation(cloud)
    assert deviation == pytest.approx(1e-9 / 3.5, rel=1e-2)
    assert deviation == pytest.approx(_lapack_circle_deviation(cloud, 4.0), rel=1e-5)


def test_circle_fit_needs_points():
    few = LimitPointCloud(
        np.zeros(5, np.complex128), np.zeros(5, np.int8), 1e-3, 30
    )
    with pytest.raises(LimitSetError):
        circle_deviation(few)


# coincident points whose mean is exact, and ones whose mean rounds, so that
# their centred coordinates are equal but not zero
@pytest.mark.parametrize("point", [0.5 - 0.25j, 0.1 + 0.7j])
@pytest.mark.parametrize("statistic", [circle_deviation, box_dimension])
def test_statistics_refuse_coincident_points(statistic, point):
    n = limitset.MIN_BOX_POINTS
    cloud = LimitPointCloud(np.full(n, point), np.zeros(n, np.int8), 1e-3, 30)
    with pytest.raises(LimitSetError, match="all points coincide"):
        statistic(cloud)


def test_fuchsian_cloud_is_a_circle():
    cloud = enumerate_limit_set(FUCHSIAN, epsilon=1e-3)
    assert circle_deviation(cloud) < 1e-3


def test_perturbed_cloud_is_not_a_circle():
    cloud = enumerate_limit_set(PERTURBED, epsilon=1e-3)
    assert circle_deviation(cloud) > 1e-2


def test_box_dimension_of_circle():
    assert abs(box_dimension(synthetic_circle(10000)) - 1.0) <= 0.05


def test_box_dimension_needs_points():
    two = LimitPointCloud(
        np.array([0j, 1 + 0j]), np.zeros(2, np.int8), 1e-3, 30
    )
    with pytest.raises(LimitSetError):
        box_dimension(two)


def test_perturbed_box_dimension_exceeds_fuchsian():
    fuchsian = enumerate_limit_set(FUCHSIAN, epsilon=1e-3)
    perturbed = enumerate_limit_set(PERTURBED, epsilon=1e-3)
    df = box_dimension(fuchsian)
    dp = box_dimension(perturbed)
    assert dp - df >= 0.02
    assert 0.5 < df < 1.5 and 0.5 < dp < 1.5


def _box_dimension_by_level(cloud):
    """box_dimension with each level's cells computed and sorted on their
    own, and the slope of their counts taken by the library's closed form."""
    z = cloud.plane_values(limitset.WINDOW_RADIUS)
    x, y = z.real, z.imag
    xmin, ymin = x.min(), y.min()
    size = max(float(x.max() - xmin), float(y.max() - ymin))
    counts = []
    for k in range(limitset.BOX_LEVELS):
        delta = size / 4.0 / (2.0**k)
        ix = np.floor((x - xmin) / delta).astype(np.int64)
        iy = np.floor((y - ymin) / delta).astype(np.int64)
        counts.append(len(np.unique(ix << 32 | iy)))
    return limitset._dyadic_slope(counts)


# the clouds of the limitset goldens with enough points in the window, and
# the benchmark's fractal cloud
@pytest.mark.parametrize(
    "rep,eps",
    [(FUCHSIAN, 1e-3), (FUCHSIAN, 2e-3), (PERTURBED, 1e-3), (PERTURBED, 2e-4), (PERTURBED, 5e-5)],
)
def test_box_dimension_matches_the_per_level_counts(rep, eps):
    cloud = enumerate_limit_set(rep, epsilon=eps)
    assert box_dimension(cloud) == _box_dimension_by_level(cloud)


def _lapack_circle_deviation(cloud, window_radius):
    """circle_deviation by LAPACK: the collinear test and the line from an
    SVD of the centred points, and the circle from lstsq of (2x, 2y, 1) on
    x^2 + y^2."""
    z = cloud.plane_values(window_radius)
    x, y = z.real, z.imag
    centred = np.column_stack([x - x.mean(), y - y.mean()])
    _, sv, vt = np.linalg.svd(centred, full_matrices=False)
    if sv[1] / sv[0] < 1e-7:
        along = centred @ vt[0]
        return float(np.abs(centred @ vt[1]).max() / (along.max() - along.min()))
    design = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    (cx, cy, c0), *_ = np.linalg.lstsq(design, x * x + y * y, rcond=None)
    radius = math.sqrt(c0 + cx * cx + cy * cy)
    return float(np.abs(np.hypot(x - cx, y - cy) - radius).max() / radius)


# the closed forms solve the least-squares problems that LAPACK solves, in
# another order of operations, so they agree to within rounding
@pytest.mark.parametrize(
    "rep,kwargs",
    [
        (FUCHSIAN, {"epsilon": 1e-3}),
        (PERTURBED, {"epsilon": 1e-3}),
        (PERTURBED, {"epsilon": 2e-4}),
        (MIXED_CHART, {"max_depth": 4}),
        (from_traces(2.2, 2.5), {"epsilon": 1e-3}),
    ],
)
def test_circle_fit_matches_the_lapack_fit(rep, kwargs):
    cloud = enumerate_limit_set(rep, **kwargs)
    for radius in (2.2, 4.0):
        expected = _lapack_circle_deviation(cloud, radius)
        assert circle_deviation(cloud, radius) == pytest.approx(expected, rel=1e-10, abs=1e-15)


def test_dyadic_slope_matches_polyfit():
    rng = np.random.default_rng(32)
    for levels in (2, 3, 7, 12):
        counts = np.sort(rng.integers(1, 10**6, levels)).tolist()
        delta0 = rng.uniform(1e-3, 10.0)
        log_inv_delta = [math.log(1.0 / (delta0 / 2.0**k)) for k in range(levels)]
        expected = np.polyfit(log_inv_delta, np.log(counts), 1)[0]
        assert limitset._dyadic_slope(counts) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- rendering and export --------------------------------------------------------


def test_render_empty_cloud_is_white():
    empty = LimitPointCloud(
        np.empty(0, np.complex128), np.empty(0, np.int8), 1e-3, 30
    )
    img = render(empty, 20, 10, (-1.0, 1.0, -1.0, 1.0))
    header = b"P6\n20 10\n255\n"
    assert img.startswith(header)
    body = img[len(header):]
    assert len(body) == 20 * 10 * 3
    assert body == b"\xff" * len(body)


def test_render_center_pixel():
    one = LimitPointCloud(
        np.array([0.5 + 0.5j]), np.zeros(1, np.int8), 1e-3, 30
    )
    img = render(one, 10, 10, (0.0, 1.0, 0.0, 1.0))
    body = img[len(b"P6\n10 10\n255\n"):]
    black = [i // 3 for i in range(0, len(body), 3) if body[i] == 0]
    assert black == [5 * 10 + 5]


def test_render_is_deterministic():
    cloud = enumerate_limit_set(FUCHSIAN, epsilon=2e-3)
    a = render(cloud, 120, 80, (-2.0, 2.0, -1.0, 1.0))
    b = render(cloud, 120, 80, (-2.0, 2.0, -1.0, 1.0))
    assert a == b
    assert a.startswith(b"P6\n120 80\n255\n")


def test_render_validates_window():
    cloud = synthetic_circle(50)
    with pytest.raises(LimitSetError):
        render(cloud, 0, 10, (-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(LimitSetError):
        render(cloud, 10, 10, (1.0, -1.0, -1.0, 1.0))
    with pytest.raises(LimitSetError):
        render(cloud, 10, 10, (-1.0, 1.0, 1.0, 1.0))
    # one pixel over 8192 x 8192 is refused before any allocation
    with pytest.raises(LimitSetError, match="pixels"):
        render(cloud, 8192, 8193, (-1.0, 1.0, -1.0, 1.0))


def test_cloud_csv(tmp_path):
    cloud = enumerate_limit_set(FUCHSIAN, epsilon=4e-3)
    text = format_cloud_csv(cloud)
    lines = text.splitlines()
    assert lines[0] == "re,im,chart"
    assert len(lines) == len(cloud) + 1
    first = lines[1].split(",")
    assert len(first) == 3 and first[2] in ("0", "1")
    path = tmp_path / "cloud.csv"
    write_cloud_csv(path, cloud)
    assert path.read_text(encoding="utf-8") == text


def _on_sphere(rng, n):
    v = rng.normal(size=(n, 3))
    return 0.5 * v / np.linalg.norm(v, axis=1, keepdims=True)


def _lattice_on_sphere(step):
    """Points of the radius-1/2 sphere whose x and y are multiples of step."""
    k = int(0.5 / step)
    x, y = np.meshgrid(np.arange(-k, k + 1) * step, np.arange(-k, k + 1) * step)
    x, y = x.ravel(), y.ravel()
    r2 = 0.25 - x * x - y * y
    keep = r2 >= 0.0
    x, y, z = x[keep], y[keep], np.sqrt(r2[keep])
    return np.concatenate([np.column_stack([x, y, z]), np.column_stack([x, y, -z])])


def _brute_nearest_sq(points, queries):
    dx, dy, dz = (queries[:, None, i] - points[None, :, i] for i in range(3))
    return (dx * dx + dy * dy + dz * dz).min(axis=1)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["uniform", "many", "duplicates", "far", "boundary", "arc"]),
    # 2 * 2^-23 is below the smallest cell side, 2^-20
    eps_exp=st.integers(-23, -2),
)
def test_grid_nearest_matches_brute_force(seed, layout, eps_exp):
    rng = np.random.default_rng(seed)
    eps = 2.0**eps_exp
    if layout == "uniform":
        points, queries = _on_sphere(rng, 200), _on_sphere(rng, 100)
    elif layout == "many":
        # many small cells at small epsilon: a query descends through many
        # levels of cells to reach its nearest point
        points, queries = _on_sphere(rng, 6000), _on_sphere(rng, 40)
    elif layout == "duplicates":
        points = _on_sphere(rng, 3)[rng.integers(0, 3, 400)]
        queries = np.concatenate([points[:20], _on_sphere(rng, 50)])
    elif layout == "far":
        # a tight cluster at the north pole and a query at the south pole,
        # far from every point
        points = _on_sphere(rng, 300) * np.array([1e-3, 1e-3, 1.0])
        points[:, 2] = np.sqrt(0.25 - points[:, 0] ** 2 - points[:, 1] ** 2)
        queries = np.concatenate(
            [[[0.0, 0.0, -0.5]], points[:30] * 0.999, _on_sphere(rng, 20)]
        )
    elif layout == "boundary":
        # x and y on faces of level-0 cells, queries also halfway
        step = max(2.0 * eps, 2.0**-20, 1.0 / 16)
        points = _lattice_on_sphere(step)
        queries = np.concatenate([_lattice_on_sphere(step / 2.0), points[:50]])
        queries = queries[rng.permutation(len(queries))[:150]]
    else:
        # points on a quarter of a great circle and queries on the rest of
        # it, as in a truncated cloud: the sphere about a query through its
        # nearest point is tangent to the set
        u, v = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
        angles = np.concatenate([rng.uniform(0.0, 0.5, 300), rng.uniform(0.5, 2.0, 60)])
        circle = 0.5 * (np.cos(np.pi * angles)[:, None] * u + np.sin(np.pi * angles)[:, None] * v)
        points, queries = circle[:300], circle[300:]
    expected = _brute_nearest_sq(points, queries)
    nearest = _Nearest(points.T, 2.0 * eps)
    columns = [q[:, None] for q in queries]
    assert [nearest.fold(q, nearest.bound(q), 0.0) for q in columns] == list(expected)
    halves = [queries[: len(queries) // 2], queries[len(queries) // 2:]]
    assert _max_over(_Nearest(points.T, 2.0 * eps), halves) == expected.max()


def _max_over(nearest, batches):
    """Fold the running best through fold from the key-order bounds, one
    batch of query rows at a time."""
    best = 0.0
    for queries in batches:
        best = nearest.fold(queries.T, nearest.bound(queries.T), best)
    return best


def _split(queries, parts):
    return [queries[i::parts] for i in range(parts)]


def _own_cell_holds_a_point(points, queries, side):
    """Whether the cell of side `side` (cell index floor((x + 1) / side) on
    each axis) that holds each query also holds a point."""
    cells = {tuple(c) for c in np.floor((points + 1.0) / side).astype(np.int64)}
    return np.array([tuple(c) in cells for c in np.floor((queries + 1.0) / side).astype(np.int64)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_squared_bound_pass_when_every_query_shares_a_cell(seed):
    # every query is a cloud point moved by at most 1e-4 that shares its own
    # cell with a point; the points beside a query in key order are mostly
    # farther than its nearest point, so the key-order bounds exceed the
    # true max and the descent decides
    rng = np.random.default_rng(seed)
    h = 1.0 / 16
    points = _on_sphere(rng, 3000)
    moved = points[:1500] + rng.uniform(-1e-4, 1e-4, (1500, 3))
    moved = 0.5 * moved / np.linalg.norm(moved, axis=1, keepdims=True)
    queries = moved[_own_cell_holds_a_point(points, moved, h)]
    assert len(queries) >= 1400
    bound = _Nearest(points.T, h).bound(queries.T)
    expected = _brute_nearest_sq(points, queries)
    assert (bound >= expected).all()
    assert 0.0 < expected.max() < bound.max()
    assert _max_over(_Nearest(points.T, h), _split(queries, 3)) == expected.max()


def test_max_squared_when_a_bounded_query_holds_the_max():
    # cloud points just left of the plane x = 0, which bounds cells on every
    # level, and queries just right of it: their own cells are empty and
    # their nearest points 0.002 away.  One query shares its own cell with
    # the point 0.01 away from it, and holds the max
    h = 1.0 / 32
    yz = np.array([(y, z) for y in (-0.2, -0.1, 0.1, 0.2) for z in (-0.2, 0.1, 0.3)])
    wall = np.column_stack([np.full(len(yz), -0.001), yz])
    lone = np.array([[-0.3, 0.0, 0.0]])
    points = np.concatenate([wall, lone])
    queries = np.concatenate([wall + [0.002, 0.0, 0.0], lone + [0.01, 0.0, 0.0], wall[:3]])
    shared = _own_cell_holds_a_point(points, queries, h)
    assert not shared[: len(wall)].any()
    assert shared[len(wall):].all()
    expected = _brute_nearest_sq(points, queries)
    assert expected.argmax() == len(wall)
    assert expected.max() > expected[: len(wall)].max() > 0.0
    for parts in (1, 2, 5):
        assert _max_over(_Nearest(points.T, h), _split(queries, parts)) == expected.max()
    # the queries that share their own cell, the max among them, in the
    # first batch, and every other query in the last
    batches = [queries[shared], queries[~shared]]
    assert _max_over(_Nearest(points.T, h), batches) == expected.max()


def test_max_squared_memory_when_every_point_is_nearly_equidistant():
    # 100,000 points on the great circle z = 0 and 200 queries within 1e-3
    # of its pole: every point is within about 1e-3 of each query's nearest
    # distance, so nearly every cell stays open down to level 0; the query
    # chunks are split to keep the pairs in flight bounded
    theta = np.linspace(0.0, 2.0 * np.pi, 100_000, endpoint=False)
    points = 0.5 * np.column_stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
    x, y = np.random.default_rng(0).uniform(-1e-3, 1e-3, (2, 200)) / math.sqrt(2.0)
    queries = np.column_stack([x, y, np.sqrt(0.25 - x * x - y * y)])
    expected = max(_brute_nearest_sq(points, q).max() for q in _split(queries, 20))
    points, queries = points.T.copy(), queries.T.copy()
    for h in (2e-6, 2e-3):
        tracemalloc.start()
        try:
            nearest = _Nearest(points, h)
            found = nearest.fold(queries, nearest.bound(queries), 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == expected
        assert peak <= 64e6


def test_lone_query_memory_is_bounded():
    # the pole of 100,000 points on the great circle z = 0 is equidistant
    # from all of them, so a lone query keeps every cell open; its cells are
    # split in halves to keep the pairs in flight bounded
    theta = np.linspace(0.0, 2.0 * np.pi, 100_000, endpoint=False)
    points = 0.5 * np.array([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
    pole = np.array([[0.0], [0.0], [0.5]])
    expected = _brute_nearest_sq(points.T, pole.T).max()
    nearest = _Nearest(points, 2e-3)
    tracemalloc.start()
    try:
        found = nearest.fold(pole, nearest.bound(pole), 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == expected
    # 2.4 MB of points; a search that meets them all at once peaks at 8 MB
    assert peak <= 2 * points.nbytes
    # just off the pole the nearest point is one of many nearly as near,
    # in the first or the last of the halves that the query's cells are
    # split into, depending on the side
    for k in range(8):
        x, y = 2e-4 * np.array([np.cos(k + 0.3), np.sin(k + 0.3)])
        query = np.array([[x], [y], [math.sqrt(0.25 - x * x - y * y)]])
        expected = _brute_nearest_sq(points.T, query.T).max()
        assert nearest.fold(query, nearest.bound(query), 0.0) == expected


def test_invariance_memory_is_bounded():
    # 319,150 points; the images are made and searched a chunk at a time
    cloud = enumerate_limit_set(FUCHSIAN, epsilon=1e-5)
    assert len(cloud) == 319_150
    tracemalloc.start()
    try:
        cloud_group_invariance(cloud, FUCHSIAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 55e6


@pytest.mark.parametrize("traces", [(3, 3, 3), (2.2, 2.5)])
def test_invariance_lifts_each_image_at_most_once(monkeypatch, traces):
    rep = from_traces(*traces)
    cloud = enumerate_limit_set(rep, epsilon=1e-3)
    # the distinct points in Morton order, in which every _ANCHOR-th is an
    # anchor, and all their images under the two generators and inverses
    vals, charts = _distinct(cloud)
    order = _Nearest(_lift(vals, charts), 2.0 * cloud.epsilon).order
    vals, charts = vals[order], charts[order]
    entries = [g.entries() for g in rep.images + rep.inverses]
    images = limitset._image_lifts(entries, vals, charts)
    anchor = np.arange(len(vals)) // limitset._ANCHOR * limitset._ANCHOR
    # an image is no nearer its nearest point than its anchor image's
    # nearest distance plus its distance to that image, so the images whose
    # sum exceeds the invariance are left unsettled by any bound
    points = _lift(vals, charts).T
    near = np.sqrt([_brute_nearest_sq(points, images[:, g, ::limitset._ANCHOR].T) for g in range(4)])
    dx, dy, dz = images - images[:, :, anchor]
    reach = np.sqrt(dx * dx + dy * dy + dz * dz) + near[:, anchor // limitset._ANCHOR]
    index = {p: i for i, p in enumerate(zip(vals.tolist(), charts.tolist()))}
    lifted = []
    image_lifts = limitset._image_lifts

    def counted(some, vals, charts, *args):
        points = [index[p] for p in zip(vals.tolist(), charts.tolist())]
        lifted.extend((entries.index(e), i) for e in some for i in points)
        return image_lifts(some, vals, charts, *args)

    monkeypatch.setattr(limitset, "_image_lifts", counted)
    for chunk in (limitset._CHUNK, 7):
        monkeypatch.setattr(limitset, "_CHUNK", chunk)
        lifted.clear()
        value = cloud_group_invariance(cloud, rep)
        assert len(set(lifted)) == len(lifted)
        unsettled = set(zip(*np.nonzero(reach * reach > value * value)))
        anchors = {(g, i) for g in range(4) for i in range(0, len(vals), limitset._ANCHOR)}
        assert unsettled | anchors <= set(lifted)


def test_invariance_lifts_few_images(monkeypatch):
    # the benchmark's fractal cloud: the anchors' images, 4/16 per point,
    # are lifted, and of the others only those that the bound from the
    # anchor leaves unsettled, so at most 1.5 of each point's 4 images
    rep = from_traces(complex(3, 0.5), 3)
    cloud = enumerate_limit_set(rep, epsilon=5e-5)
    lifted = []
    image_lifts = limitset._image_lifts

    def counted(entries, vals, *args):
        lifted.append(len(entries) * len(vals))
        return image_lifts(entries, vals, *args)

    monkeypatch.setattr(limitset, "_image_lifts", counted)
    cloud_group_invariance(cloud, rep)
    assert sum(lifted) <= 1.5 * len(_distinct(cloud)[0])


def _sl2_of_norm(norm, rng):
    """U diag(norm, 1/norm) V for seeded unitary U and V, scaled to
    determinant 1, and V's conjugate rows: the unit vectors that the matrix
    stretches most and least."""
    u, v = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(2))
    m = u @ np.diag([norm, 1.0 / norm]) @ v
    m /= np.sqrt(np.linalg.det(m))
    return tuple(complex(x) for x in m.ravel()), v.conj()


def _in_both_charts(u, v):
    """The points (u : v) as chart values and charts, each point once in
    chart 0 and once in chart 1."""
    return np.concatenate([u / v, v / u]), np.repeat(np.array([0, 1], np.int8), len(u))


def _reach_and_distance(g, z, w):
    """_image_reach for the images of the points z under the matrix with
    entries g, each with the point of w beside it as its anchor, and the
    distance between the computed lifts of the two images; points are
    (values, charts) pairs."""
    n = len(z[0])
    spread = np.sqrt(limitset._squared(_lift(*z), _lift(*w), np.arange(n)))
    norm = np.empty((1, n))
    anchor = limitset._image_lifts([g], *w, norm)[:, 0]
    image = limitset._image_lifts([g], *z)[:, 0]
    return limitset._image_reach(spread, norm[0], g), np.sqrt(limitset._squared(image, anchor, np.arange(n)))


@pytest.mark.parametrize("stretch", [1.0, 1.5, 1e2, 1e4, 1e6])
def test_image_reach_bounds_the_computed_image_distance(stretch):
    rng = np.random.default_rng(int(stretch))
    g, right = _sl2_of_norm(stretch, rng)
    n = 400
    # unit anchors w^: seeded; on |z| = 1 and |z| = 2, the chart boundaries
    # of clouds; on g's preimage of |z| = 1, the chart boundary of images;
    # and g's most stretched vector, from which a move toward the least
    # stretched one shrinks |g z^| at the rate the bound allows
    turn = np.exp(2j * np.pi * rng.uniform(size=n))
    a, b, c, d = g
    w = np.concatenate([
        rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n)),
        [turn, np.ones(n)], [2.0 * turn, np.ones(n)],
        [d * turn - b, a - c * turn],
        np.repeat(right[0][:, None], n, axis=1),
    ], axis=1)
    w /= np.linalg.norm(w, axis=0)
    # z^ at chordal distance sin(alpha) from w^, alpha from 1e-17 to pi/2
    across = np.array([-w[1].conj(), w[0].conj()])
    across[:, -n:] = right[1][:, None]
    alpha = 10.0 ** rng.uniform(-17.0, math.log10(math.pi / 2), w.shape[1])
    z = np.cos(alpha) * w + np.sin(alpha) * np.exp(2j * np.pi * rng.uniform(size=w.shape[1])) * across
    # the pole of the bound, where |g z^|'s lower bound reaches 0: spreads
    # just below it, found by bisection
    norm = np.empty((1, w.shape[1]))
    limitset._image_lifts([g], w[0] / w[1], np.zeros(w.shape[1], np.int8), norm)
    low, high = np.zeros(w.shape[1]), np.ones(w.shape[1])
    for _ in range(60):
        mid = 0.5 * (low + high)
        finite = np.isfinite(limitset._image_reach(mid, norm[0], g))
        low, high = np.where(finite, mid, low), np.where(finite, high, mid)
    near_pole = np.minimum(low * (1.0 - 2.0 ** -rng.integers(1, 40, w.shape[1])), 1.0)
    beside = np.sqrt(1.0 - near_pole * near_pole) * w + near_pole * across
    anchors = _in_both_charts(*w)
    # each point with its anchor in the same chart and in the other one
    for roll in (0, w.shape[1]):
        for z_hat in (z, beside):
            w_roll = tuple(np.roll(x, roll) for x in anchors)
            reach, distance = _reach_and_distance(g, _in_both_charts(*z_hat), w_roll)
            assert (reach >= distance).all()
            assert np.isfinite(reach).mean() > 0.5


def test_invariance_key_bounds_few_images(monkeypatch):
    # the anchors, one image in _ANCHOR = 16, are all bounded in key order;
    # the anchor bounds settle all but a few of the others, so at most
    # 1/16 + 3/16 of the images reach _Nearest.bound (0.17 when measured)
    rep = from_traces(complex(3, 0.5), 3)
    cloud = enumerate_limit_set(rep, epsilon=1e-4)
    bounded = []
    bound = _Nearest.bound

    def counted(self, queries):
        bounded.append(queries.shape[1])
        return bound(self, queries)

    monkeypatch.setattr(_Nearest, "bound", counted)
    cloud_group_invariance(cloud, rep)
    assert sum(bounded) <= 0.25 * 4 * len(_distinct(cloud)[0])


@pytest.mark.parametrize(
    "traces,kwargs",
    [
        ((3, 3, 3), {"epsilon": 1e-5, "cap": 20000}),
        ((2, 2), {"epsilon": 1e-6, "cap": 20000}),
        ((3, 3, 3), {"epsilon": 1e-3}),
    ],
)
def test_invariance_work_is_linear_in_the_cloud(monkeypatch, traces, kwargs):
    # truncated clouds whose images fall far from them, and a whole one
    rep = from_traces(*traces)
    cloud = enumerate_limit_set(rep, **kwargs)
    distances = []
    squared = limitset._squared

    def counted(*args):
        d2 = squared(*args)
        distances.append(len(d2))
        return d2

    monkeypatch.setattr(limitset, "_squared", counted)
    cloud_group_invariance(cloud, rep)
    # each cloud point has 4 images, the key-order bound takes 2 distances
    # per image, and the descents at most as many again
    assert sum(distances) <= 16 * len(cloud)


def test_invariance_distances_per_point(monkeypatch):
    # the benchmark's fractal cloud: the key bounds of the anchors' images,
    # 4/16 per point, take 2 distances each and the spreads to the anchors
    # 15/16, so 1.44 per point before the images that the reach bound
    # leaves open are bounded and searched (2.19 in all when measured)
    rep = from_traces(complex(3, 0.5), 3)
    cloud = enumerate_limit_set(rep, epsilon=5e-5)
    distances = []
    squared = limitset._squared

    def counted(*args):
        d2 = squared(*args)
        distances.append(len(d2))
        return d2

    monkeypatch.setattr(limitset, "_squared", counted)
    cloud_group_invariance(cloud, rep)
    assert sum(distances) <= 2.3 * len(cloud)


# (representation, enumeration arguments, repr of the invariance)
SPLIT_CASES = [
    (FUCHSIAN, {"epsilon": 1e-3}, "0.0045580501105617665"),
    (from_traces(2.2, 2.5), {"epsilon": 1e-3}, "0.006376945881962469"),
    (FUCHSIAN, {"epsilon": 1e-5, "cap": 20000}, "0.3234748284323663"),
]


@pytest.mark.parametrize("spec,kwargs,expected", SPLIT_CASES)
def test_invariance_does_not_depend_on_the_batch_split(monkeypatch, spec, kwargs, expected):
    cloud = enumerate_limit_set(spec, **kwargs)
    assert repr(cloud_group_invariance(cloud, spec)) == expected
    for chunk in (7, 500):
        monkeypatch.setattr(limitset, "_CHUNK", chunk)
        assert repr(cloud_group_invariance(cloud, spec)) == expected


def _images(cloud, rep):
    """The lifts of the cloud's images under every generator and inverse,
    one column per image, made by the program's own image function."""
    entries = [g.entries() for g in rep.images + rep.inverses]
    return limitset._image_lifts(entries, cloud.values, cloud.charts).reshape(3, -1)


def _brute_invariance(cloud, rep):
    """The invariance by brute force: the max over every image that
    _image_lifts makes of the squared distance to the nearest cloud lift,
    each summed as _squared sums it."""
    points = _lift(cloud.values, cloud.charts)
    best = 0.0
    images = _images(cloud, rep)
    for s in range(0, images.shape[1], 200):
        dx, dy, dz = (q[s:s + 200, None] - x[None, :] for q, x in zip(images, points))
        best = max(best, float((dx * dx + dy * dy + dz * dz).min(axis=1).max()))
    return math.sqrt(best)


def _seeded_reps(count, seed):
    """Loxodromic generators from trace pairs near the Fuchsian ones."""
    rng = random.Random(seed)
    return [
        from_traces(
            complex(rng.uniform(2.1, 3.5), rng.uniform(-0.4, 0.4)),
            complex(rng.uniform(2.1, 3.5), rng.uniform(-0.4, 0.4)),
        )
        for _ in range(count)
    ]


def _distinct(cloud):
    """The values and charts of the points cloud_group_invariance searches:
    a sorted cloud's repeats are next to each other."""
    vals, charts = cloud.values, cloud.charts
    keep = np.r_[True, (vals[1:] != vals[:-1]) | (charts[1:] != charts[:-1])]
    return vals[keep], charts[keep]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_invariance_matches_brute_force(monkeypatch, seed):
    # seeded clouds of at most 3,000 points, whole or cut by the cap
    for rep, (eps, cap) in zip(_seeded_reps(2, seed), [(2e-3, 3000), (1e-4, 1500)]):
        cloud = enumerate_limit_set(rep, epsilon=eps, cap=cap)
        assert 1000 <= len(cloud) <= 3000
        expected = _brute_invariance(cloud, rep)
        assert cloud_group_invariance(cloud, rep) == expected
        # chunks whose length is not a multiple of _ANCHOR, and a last
        # chunk of one point
        n = len(_distinct(cloud)[0])
        assert (n - 1) % limitset._ANCHOR
        for chunk in (7, 500, n - 1):
            monkeypatch.setattr(limitset, "_CHUNK", chunk)
            assert cloud_group_invariance(cloud, rep) == expected
        monkeypatch.undo()


def _invariance_without_anchors(cloud, rep):
    """The invariance with every image bounded in key order and searched
    through _Nearest.fold, one chunk of images at a time."""
    nearest = _Nearest(_lift(cloud.values, cloud.charts), 2.0 * cloud.epsilon)
    images = _images(cloud, rep)
    best = 0.0
    for s in range(0, images.shape[1], 1 << 15):
        chunk = images[:, s:s + (1 << 15)]
        best = nearest.fold(chunk, nearest.bound(chunk), best)
    return math.sqrt(best)


# the clouds whose bytes are checked across CPU kernels: (traces, eps)
CROSS_CPU_CLOUDS = [
    ((complex(3, 0.5), 3), 5e-5),
    ((complex(3, 0.5), 3), 1e-3),
    ((complex(3, 0.5), 3), 1e-4),
    ((3, complex(3, 1)), 1e-3),
    ((complex(2.1, 0.3), 2.4), 1e-3),
    ((complex(1.9, 0.05), complex(2, 0.1)), 1e-3),
    ((2.2, 2.5), 1e-3),
    ((3, 3, 3), 1e-3),
]


@pytest.mark.parametrize("traces,eps", CROSS_CPU_CLOUDS)
def test_invariance_matches_the_search_without_anchors(traces, eps):
    # the clouds of up to 4,500 points are checked by brute force too; the
    # search without anchors is checked against it on its own
    # (test_grid_nearest_matches_brute_force)
    rep = from_traces(*traces)
    cloud = enumerate_limit_set(rep, epsilon=eps)
    value = cloud_group_invariance(cloud, rep)
    assert value == _invariance_without_anchors(cloud, rep)
    if len(cloud) <= 4500:
        assert value == _brute_invariance(cloud, rep)


@pytest.mark.parametrize("reach", [math.inf, math.nan])
def test_invariance_does_not_need_the_reach_bound(monkeypatch, reach):
    # a reach that settles no image, infinite or NaN, leaves every image
    # to the key-order bound and the search
    rep = from_traces(complex(3, 0.5), 3)
    cloud = enumerate_limit_set(rep, epsilon=1e-3)
    monkeypatch.setattr(limitset, "_image_reach", lambda spread, *args: np.full_like(spread, reach))
    assert cloud_group_invariance(cloud, rep) == _invariance_without_anchors(cloud, rep)


def test_invariance_rejects_empty_cloud():
    empty = LimitPointCloud(
        np.empty(0, np.complex128), np.empty(0, np.int8), 1e-3, 30
    )
    with pytest.raises(LimitSetError):
        cloud_group_invariance(empty, FUCHSIAN)
