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

from kleinnet.errors import ElementaryGroupError, LimitSetError, RepresentationError
from kleinnet.limitset import (
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
    return float(np.linalg.norm(lifts[0] - lifts[1]))


def test_sphere_point_charts():
    # a point lifts to the same sphere point from either chart
    for z in (0.5 + 0.25j, 1.0 + 0j, 4.0 + 0j, -3.0 - 7.5j):
        assert _chordal((z, 0), (1.0 / z, 1)) <= 1e-15
    # 0 lifts to the south pole; chart 1 holds infinity at 0, the north pole
    assert _lift(np.array([0j, 0j]), np.array([0, 1])).tolist() == [
        [0.0, 0.0, -0.5], [0.0, 0.0, 0.5]
    ]


def test_sphere_lift_has_radius_half():
    rng = np.random.default_rng(4)
    points = [
        _chart(complex(rng.normal(0, 3), rng.normal(0, 3))) for _ in range(50)
    ]
    values, charts = zip(*points)
    radii = np.linalg.norm(_lift(np.array(values), np.array(charts)), axis=1)
    assert np.abs(radii - 0.5).max() <= 1e-12
    assert _lift(np.array([0j]), np.array([1])).tolist() == [[0.0, 0.0, 0.5]]


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
# _image_lift forms them)
INVARIANCE_GUARD = [
    (FUCHSIAN, {"epsilon": 1e-3}, "0.0045580501105617665"),
    (PERTURBED, {"epsilon": 1e-3}, "0.004878685370349052"),
    (PERTURBED, {"epsilon": 2e-4}, "0.0013293604717729904"),
    (MIXED_CHART, {"max_depth": 3}, "0.23398013211877935"),
    (from_traces(0, 0), FINITE_GROUP_CLOUD, "0.7999999999999999"),
    (MIXED_CHART, {"epsilon": 5e-3, "cap": 20000}, "0.19439189257008074"),
    (FUCHSIAN, {"epsilon": 1e-5, "cap": 100000}, "0.07392611075604565"),
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


def _guard_reprs(env):
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD_SCRIPT, str(Path(__file__).parent)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_invariance_does_not_depend_on_cpu_kernels():
    default = _guard_reprs(_env_with_src())
    assert len(default) == len(INVARIANCE_GUARD)
    assert _guard_reprs(_plain_cpu_env()) == default


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


def test_circle_fit_needs_points():
    few = LimitPointCloud(
        np.zeros(5, np.complex128), np.zeros(5, np.int8), 1e-3, 30
    )
    with pytest.raises(LimitSetError):
        circle_deviation(few)


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
    layout=st.sampled_from(["uniform", "many", "duplicates", "far", "boundary"]),
    # 2 * 2^-23 is below the smallest cell side, 2^-20
    eps_exp=st.integers(-23, -2),
)
def test_grid_nearest_matches_brute_force(seed, layout, eps_exp):
    rng = np.random.default_rng(seed)
    eps = 2.0**eps_exp
    if layout == "uniform":
        points, queries = _on_sphere(rng, 200), _on_sphere(rng, 100)
    elif layout == "many":
        # more than 4096 cells at small epsilon: the coarse cells are merged
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
    else:
        # x and y on cell faces of the finest grid, queries also halfway
        step = max(2.0 * eps, 2.0**-20, 1.0 / 16)
        points = _lattice_on_sphere(step)
        queries = np.concatenate([_lattice_on_sphere(step / 2.0), points[:50]])
        queries = queries[rng.permutation(len(queries))[:150]]
    expected = _brute_nearest_sq(points, queries)
    nearest = _Nearest(points, 2.0 * eps)
    assert [nearest.max_squared([q[None]]) for q in queries] == list(expected)
    halves = [queries[: len(queries) // 2], queries[len(queries) // 2:]]
    assert _Nearest(points, 2.0 * eps).max_squared(halves) == expected.max()


def _split(queries, parts):
    return [queries[i::parts] for i in range(parts)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_squared_bound_pass_when_every_query_shares_a_cell(seed):
    # every query is a cloud point moved by at most 1e-4 and shares its own
    # cell with a point, so none is searched on the first pass; the first
    # point of a cell of side 1/16 is mostly farther than the nearest point,
    # so the bounds exceed the true max and the second pass decides
    rng = np.random.default_rng(seed)
    h = 1.0 / 16
    points = _on_sphere(rng, 3000)
    moved = points[:1500] + rng.uniform(-1e-4, 1e-4, (1500, 3))
    moved = 0.5 * moved / np.linalg.norm(moved, axis=1, keepdims=True)
    bound = _Nearest(points, h).own_cell_sq(moved)
    queries = moved[np.isfinite(bound)]
    bound = bound[np.isfinite(bound)]
    assert len(queries) >= 1400
    expected = _brute_nearest_sq(points, queries)
    assert 0.0 < expected.max() < bound.max()
    assert _Nearest(points, h).max_squared(_split(queries, 3)) == expected.max()


def test_max_squared_when_a_bounded_query_holds_the_max():
    # cloud points just left of the plane x = 0, which bounds cells of both
    # sides 1/32 and 1/8, and open queries just right of it: their own cells
    # are empty and their nearest points 0.002 away.  One query shares its
    # own cell with the point 0.01 away from it, and holds the max
    h = 1.0 / 32
    yz = np.array([(y, z) for y in (-0.2, -0.1, 0.1, 0.2) for z in (-0.2, 0.1, 0.3)])
    wall = np.column_stack([np.full(len(yz), -0.001), yz])
    lone = np.array([[-0.3, 0.0, 0.0]])
    points = np.concatenate([wall, lone])
    queries = np.concatenate([wall + [0.002, 0.0, 0.0], lone + [0.01, 0.0, 0.0], wall[:3]])
    nearest = _Nearest(points, h)
    bound = nearest.own_cell_sq(queries)
    assert np.isinf(bound[: len(wall)]).all()
    assert np.isfinite(bound[len(wall):]).all()
    expected = _brute_nearest_sq(points, queries)
    assert expected.argmax() == len(wall)
    assert expected.max() > expected[: len(wall)].max() > 0.0
    for parts in (1, 2, 5):
        assert _Nearest(points, h).max_squared(_split(queries, parts)) == expected.max()


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


def test_invariance_rejects_empty_cloud():
    empty = LimitPointCloud(
        np.empty(0, np.complex128), np.empty(0, np.int8), 1e-3, 30
    )
    with pytest.raises(LimitSetError):
        cloud_group_invariance(empty, FUCHSIAN)
