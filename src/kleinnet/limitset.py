"""Limit sets of one- and two-generator subgroups of SL(2,C) acting on the
Riemann sphere.

Points are sampled by a traversal of nonbacktracking words: at the node for
prefix M the candidates are M applied to the attracting fixed points of the
allowed next letters, and a branch is pruned once its candidate set has
diameter below epsilon.  Coordinates live in two charts (z and 1/z) so points
near infinity stay bounded.  The traversal is level-synchronous: all nodes of
one word length are processed at once with numpy, and the complex arithmetic
is spelled out on real and imaginary parts so every float is the one
CPython's naive complex formulas give.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._record import Record
from .errors import ElementaryGroupError, LimitSetError, SparseWindowError
from .sl2 import Matrix2C, Representation, classify, make_rep

__all__ = [
    "from_traces",
    "LimitPointCloud",
    "enumerate_limit_set",
    "circle_deviation",
    "box_dimension",
    "render",
    "check_window",
    "check_image_size",
    "cloud_group_invariance",
    "format_cloud_csv",
    "write_cloud_csv",
]

DEFAULT_EPSILON = 1e-3
DEFAULT_MAX_DEPTH = 30
DEFAULT_CAP = 1_000_000
# largest point cap: a run peaks at about 170-230 bytes per point, so a run
# at this cap may take up to about 1 GB
MAX_CAP = 4_000_000
# largest word length: a level of few nodes takes about 36 us, so a run at
# this depth may spend about 3.6 s on narrow levels alone
MAX_DEPTH = 100_000
MARKOV_TOL = 1e-8
# rounding allowance of the trace relation, in units of the largest rounding
# error of one of its terms
MARKOV_ULPS = 32
# two generators share a fixed point when |tr[a,b] - 2| is at most this
# multiple of (a.scale() * b.scale())^2: each trace carries rounding errors
# of order 2^-52 times its matrices' entries, and the polynomial squares them
COMMUTATOR_TOL = 1e-14
WINDOW_RADIUS = 4.0
BOX_LEVELS = 7
# the fewest points within the window's radius that circle_deviation fits,
# and within WINDOW_RADIUS that box_dimension counts
MIN_CIRCLE_POINTS = 10
MIN_BOX_POINTS = 1000
# the largest image render draws: 8192 x 8192, 192 MiB of pixels
MAX_PIXELS = 1 << 26


def _larger_eigenvalue(tr: complex) -> complex:
    """The eigenvalue of larger modulus of a unimodular matrix of trace tr."""
    sq = cmath.sqrt(tr * tr - 4.0)
    mu = (tr + sq) / 2.0
    alt = (tr - sq) / 2.0
    return alt if abs(alt) > abs(mu) else mu


def _attracting_eigvec(m: Matrix2C) -> tuple[complex, complex]:
    """Homogeneous attracting fixed point: the eigenvector of the eigenvalue
    of larger modulus, scaled so the larger component has modulus 1."""
    a, b, c, d = m.entries()
    mu = _larger_eigenvalue(a + d)
    u1, v1 = b, mu - a
    u2, v2 = mu - d, c
    if abs(u1) + abs(v1) >= abs(u2) + abs(v2):
        u, v = u1, v1
    else:
        u, v = u2, v2
    s = max(abs(u), abs(v))
    if s == 0.0:
        raise LimitSetError("no eigenvector: matrix is +/-identity")
    return (u / s, v / s)


def _markov(x: complex, y: complex, z: complex) -> tuple[complex, float]:
    """x^2 + y^2 + z^2 - xyz and the sum of its terms' moduli.  For the
    traces x, y, z of a, b and ab the first is tr[a,b] + 2 (Fricke)."""
    x2, y2, z2, xyz = x * x, y * y, z * z, x * y * z
    return x2 + y2 + z2 - xyz, abs(x2) + abs(y2) + abs(z2) + abs(xyz)


def from_traces(
    x: complex,
    y: complex,
    z: complex | None = None,
    other_root: bool = False,
) -> Representation:
    """Generators with traces (x, y, z) subject to the Markov relation
    x^2 + y^2 + z^2 = xyz, so that tr[a,b] = -2.  When z is omitted it is
    solved from the relation; the root of larger modulus is used unless
    other_root.  The relation must hold to MARKOV_TOL plus the rounding
    error of evaluating it."""
    x, y = complex(x), complex(y)
    if z is None:
        sq = cmath.sqrt(x * x * y * y - 4.0 * (x * x + y * y))
        r1 = (x * y + sq) / 2.0
        r2 = (x * y - sq) / 2.0
        big, small = (r1, r2) if abs(r1) >= abs(r2) else (r2, r1)
        z = small if other_root else big
    else:
        if other_root:
            raise LimitSetError("other_root applies only when z is solved")
        z = complex(z)
    value, size = _markov(x, y, z)
    residual = abs(value)
    # non-finite traces, given or solved, and traces too large to square
    # leave no finite residual
    if not math.isfinite(residual):
        raise LimitSetError("traces must be finite and small enough to square")
    if not residual <= MARKOV_TOL + MARKOV_ULPS * 2.0**-52 * size:
        raise LimitSetError(
            f"trace triple violates x^2+y^2+z^2 = xyz by {residual:.3g}"
        )
    # tr(ab) = -(mu + 1/mu), so mu is an eigenvalue of a trace -z matrix
    mu = _larger_eigenvalue(-z)
    a = Matrix2C(x, 1.0, -1.0, 0.0)
    b = Matrix2C(0.0, mu, -1.0 / mu, y)
    return make_rep([a, b])

class LimitPointCloud(Record):
    """Sampled limit set: chart coordinates, chart flags, and the sampling
    parameters.  `values` is a complex128 array of chart coordinates and
    `charts` an int8 array beside it (0: z, 1: 1/z); `epsilon` and
    `max_depth` are the resolution and word-length cap of the traversal, and
    `truncated` says that the point cap stopped it.  Points are sorted by
    (re, im, chart) so output is independent of traversal scheduling.
    Clouds compare by identity."""

    __slots__ = ("values", "charts", "epsilon", "max_depth", "truncated")
    _defaults = {"truncated": False}
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def plane_values(self, radius: float = WINDOW_RADIUS) -> np.ndarray:
        """Plane coordinates of the points with |z| <= radius.  A chart-1
        zero (infinity) or a chart-1 value whose inverse overflows has no
        finite modulus, so it falls outside every window, also an infinite
        one."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z = np.where(self.charts == 0, self.values, 1.0 / self.values)
            mag = np.abs(z)
        return z[np.isfinite(mag) & (mag <= radius)]


def _lift(values: np.ndarray, charts: np.ndarray) -> np.ndarray:
    """Radius-1/2 sphere lift of chart coordinates, one row per axis and one
    column per point; the chordal metric is the Euclidean distance between
    lifts."""
    lift = np.empty((3, len(values)))
    _lift_into(lift, values.real, values.imag, charts == 0, np.empty((3, len(values))))
    return lift


def _lift_into(lift, re, im, chart0, scratch) -> None:
    """Write the lift of the points re + i*im, in chart 0 where chart0,
    into the rows of lift, with three rows of scratch as temporaries:
    (re, s*im, s*(n2 - 1)/2) / (1 + n2), n2 = re^2 + im^2, s = 1 in
    chart 0 and -1 in chart 1."""
    n2, den, t = scratch
    np.multiply(re, re, out=n2)
    n2 += np.multiply(im, im, out=t)
    np.add(1.0, n2, out=den)
    np.divide(re, den, out=lift[0])
    np.copyto(t, -1.0)
    np.copyto(t, 1.0, where=chart0)
    np.divide(np.multiply(t, im, out=t), den, out=lift[1])
    np.subtract(1.0, n2, out=t)
    np.subtract(n2, 1.0, out=t, where=chart0)
    np.divide(t, np.multiply(2.0, den, out=den), out=lift[2])


def _cloud_order(re: np.ndarray, im: np.ndarray, charts: np.ndarray) -> np.ndarray:
    """The permutation `np.lexsort((charts, im, re))` gives, made with one
    sort of re: each run of equal re (NaNs, which sort last, count as
    equal, as lexsort holds them) is then ordered by (im, chart, index).
    Runs of equal re are rare, so this is one float sort where lexsort
    makes three stable sorts."""
    order = np.argsort(re)
    r = re[order]
    tie = r[1:] == r[:-1]
    tie |= np.isnan(r[1:]) & np.isnan(r[:-1])
    if tie.any():
        pos = np.flatnonzero(tie)
        tied = np.union1d(pos, pos + 1)
        run = np.cumsum(np.r_[True, ~tie])[tied]
        sub = order[tied]
        order[tied] = sub[np.lexsort((sub, charts[sub], im[sub], run))]
    return order


def _make_cloud(
    re: np.ndarray,
    im: np.ndarray,
    charts: np.ndarray,
    epsilon: float,
    max_depth: int,
    truncated: bool,
) -> LimitPointCloud:
    order = _cloud_order(re, im, charts)
    values = np.empty(order.size, dtype=np.complex128)
    values.real = re[order]
    values.imag = im[order]
    return LimitPointCloud(
        values, charts[order].astype(np.int8), epsilon, max_depth, truncated
    )


# Complex numbers in the traversal are (re, im) pairs of floats, and the
# arithmetic is CPython's naive formulas written out, so results do not
# depend on how numpy or the interpreter evaluates complex products.  The
# 2x2 matrices of a level are one array with axes (re/im, column, row,
# node), so each arithmetic step is one numpy call for the whole level.

# letters 0=a, 1=a^-1, 2=b, 3=b^-1; after letter l come the letters h != l^1
_NEXT = np.array([[h for h in range(4) if h != l ^ 1] for l in range(4)])
# cloud points whose images are searched at once (invariance): bounds the
# temporaries, which at this size stay below the traversal's peak
_CHUNK = 1 << 14
# frontier nodes expanded at once: a level's stacked products hold up to
# 96 floats per node, which this keeps within a few MB
_LEVEL_CHUNK = 1 << 13
# the signed zeros with which CPython divides a complex by a float
_QUOTIENT_ZEROS = np.array([0.0, -0.0])[:, None, None, None]
# p/q has numerator p * conj(q): (p.re, p.im) * q.re + (p.im, p.re) * (q.im,
# -q.im), whose second factor this makes from q.im
_CONJUGATE = np.array([1.0, -1.0])[:, None, None]
# per candidate count k: the candidate index pairs i < j (all i, then all
# j) over which a node's diameter is taken
_DIAMETER_ENDS = {k: np.concatenate(np.triu_indices(k, 1)) for k in (3, 4)}
# (shift, mask) steps that move bit k of a 16-bit box cell index to bit 2k
_SPREAD2 = ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555))


def _multiplier(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Products with w = re + i*im as sums of real products: m*w has re
    part m.re*re + m.im*(-im) and im part m.re*im + m.im*re, so the table
    holds (re, im) at index 0 of its first axis (m's part) and (-im, re) at
    index 1.  The axis of the product's part comes after the first axis of
    re and im."""
    return np.ascontiguousarray(np.array([[re, im], [-im, re]]).swapaxes(1, 2))


def _product(m: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums over c of m[c] x[c] for complex m and x: m has axes (re/im,
    c, ...) and x is a _multiplier table, broadcast against m.  Each
    product is re*re - im*im and re*im + im*re, and the sum over c runs
    left to right.  The products are written to `out`, and the sums into
    their own first rows."""
    p = np.multiply(m, x, out=out)
    p = np.add(p[0], p[1], out=p[0])
    return np.add(p[0], p[1], out=p[0])


def _normalized(m: np.ndarray) -> np.ndarray:
    """Matrices with axes (re/im, column, row, node) over their entries'
    largest |re| + |im|.  The quotient is spelled as CPython divides a
    complex by a float (the float is promoted to complex), which keeps
    signed zeros: re + im*0.0 and im - re*0.0, over the scale."""
    a = np.abs(m)
    s = np.add(a[0], a[1], out=a[0]).reshape(4, -1).max(axis=0)
    q = np.multiply(m[::-1], _QUOTIENT_ZEROS)
    np.add(m, q, out=q)
    return np.divide(q, s, out=q)


def _node_points(uv, eps2: float, at_floor: bool):
    """Evaluate nodes whose candidate points are u/v; uv has axes (u or v,
    re/im, candidate, node).

    A node emits when its candidates fit one chart and have squared
    diameter below eps2, and always at the depth floor, where a candidate
    set straddling the charts takes the majority chart.  The emitted point
    is the centroid of the candidates in that chart.  Returns the emit mask
    and the emitting nodes' centroids, as (re, im) rows, and charts (None
    when no node emits).
    """
    k = uv.shape[2]
    sq = uv * uv
    norm = np.add(sq[:, 0], sq[:, 1], out=sq[:, 0])
    # fits[0]: |u| <= 2|v|, the candidate fits chart 0; fits[1]: chart 1
    fits = norm <= 4.0 * norm[::-1]
    counts = fits.sum(axis=1)
    all0, all1 = counts == k
    uniform = all0 | all1
    # chart 0 when all candidates fit it, else when not all fit chart 1
    # and at least half fit chart 0
    use0 = np.where(uniform, all0, counts[0] >= k / 2)
    # the candidates as p/q in the chosen chart
    p, q = np.where(use0, uv, uv[::-1])
    d = np.where(use0, norm[1], norm[0])
    z = np.multiply(p, q[0])
    t = np.multiply(q[1], _CONJUGATE)
    np.multiply(p[::-1], t, out=t)
    np.add(z, t, out=z)
    np.divide(z, d, out=z)
    ends = np.take(z, _DIAMETER_ENDS[k], axis=1).reshape(2, 2, -1, len(use0))
    dz = np.subtract(ends[:, 0], ends[:, 1])
    np.multiply(dz, dz, out=dz)
    diam2 = np.fmax.reduce(np.add(dz[0], dz[1], out=dz[0]), axis=0, initial=0.0)
    emit = np.logical_and(diam2 < eps2, uniform)
    if at_floor:
        emit[:] = True
    if not emit.any():
        return emit, None
    in_chart = np.where(use0, fits[0], fits[1])
    z = np.where(in_chart, z, 0.0)[..., emit]
    c = 0.0 + z[:, 0]
    for i in range(1, k):
        np.add(c, z[:, i], out=c)
    use0 = use0[emit]
    return emit, (np.divide(c, np.where(use0, *counts[:, emit]), out=c), np.where(use0, 0, 1))


class _Scratch:
    """One buffer for the temporaries of a chunk of frontier nodes, kept
    across levels.  The candidates taken per node and their products with
    the prefixes are dead before the children are made, so they share it
    with the letters' matrices taken per child and the children's stacked
    products."""

    def __init__(self) -> None:
        self.flat = np.empty(0)

    def fit(self, nodes: int) -> None:
        """Grow the buffer to hold a chunk of `nodes` nodes; it never
        shrinks, so a level no wider than an earlier one takes no new
        pages."""
        if len(self.flat) < 144 * nodes:
            # the smaller buffer is freed before the larger is allocated
            self.flat = None
            self.flat = np.empty(144 * nodes)

    def take(self, table: np.ndarray, index: np.ndarray, at: int) -> np.ndarray:
        """table[..., index], written into the buffer from float `at` on."""
        shape = table.shape[:-1] + index.shape
        out = self.flat[at:at + math.prod(shape)].reshape(shape)
        return np.take(table, index, axis=-1, out=out, mode="clip")

    def out(self, shape: tuple) -> np.ndarray:
        """The buffer's first floats, as an array of the given shape."""
        return self.flat[: math.prod(shape)].reshape(shape)


def _expand(mats, last, cands, steps, scratch, eps2: float, at_floor: bool, room: int):
    """One chunk of a level: nodes with prefix matrices `mats` (as
    _normalized returns them) and last letters `last`.  cands and steps are
    the _multiplier tables of the candidates after each last letter and of
    the letters' matrices, and scratch a _Scratch for the chunk.  `room` is
    cap less the level's points and children so far.  This chunk's points
    take from it too, and the next level cuts the children past it, so only
    the first ceil(room / 3) open nodes are expanded.

    Returns the points of the emitting nodes (None if there are none), the
    number of children all open nodes have, and the children made, each
    node's in letter order (None when no room is left)."""
    n = len(last)
    # the products fill the first 48 floats per node, the candidates the
    # next 24
    x = scratch.take(cands, last, 48 * n)
    uv = _product(mats[:, :, :, None, None], x[:, :, None], scratch.out((2, 2, 2, 2, 3, n)))
    emit, points = _node_points(uv, eps2, at_floor)
    if points is not None:
        room -= len(points[1])
        grow = ~emit
        mats, last = mats[..., grow], last[grow]
    made = 3 * len(last)
    if room <= 0:
        return points, made, None
    keep = -(-room // 3)
    mats, last = mats[..., :keep], last[:keep]
    n = len(last)
    child_last = _NEXT[last].ravel()
    # the stacked products fill the first 96 floats per parent node, the
    # letters' matrices the next 48; each parent meets its three children's
    # by broadcasting, with the children last, as a repeat of the parents
    # would lay them out
    x = scratch.take(steps, child_last, 96 * n).reshape(2, 2, 2, 2, 1, n, 3)
    children = _product(mats[:, :, None, None, :, :, None], x, scratch.out((2, 2, 2, 2, 2, n, 3)))
    return points, made, (_normalized(children.reshape(2, 2, 2, 3 * n)), child_last)


def _traverse(gens, fixes, epsilon: float, max_depth: int, cap: int):
    """Points of the pruned word traversal, in level order and word order
    within a level, and whether the point cap cut the traversal short.

    gens are the (a, b, c, d) entries of a, a^-1, b, b^-1 and fixes their
    homogeneous attracting fixed points.  Every open node emits at least one
    point, so before each level the frontier is cut to its first
    cap - emitted nodes: a run is truncated exactly when the whole traversal
    would emit more than cap points, and then it returns exactly cap points.
    Children past that cut are counted but not computed.
    """
    eps2 = epsilon * epsilon
    # entries as (row, column, letter) and fixed points as (u or v, letter)
    ent = np.array(gens).T.reshape(2, 2, 4)
    fix = np.array(fixes).T

    # depth 0: the identity prefix, all four letters allowed
    emit, points = _node_points(np.stack([fix.real, fix.imag], axis=1)[..., None], eps2, False)
    if emit[0]:
        (re, im), chart = points
        return re, im, chart, False

    # the fixed points of the letters after each last letter, as (u or v,
    # candidate, last letter)
    after = fix[:, _NEXT.T]
    cands = _multiplier(after.real, after.imag)
    steps = _multiplier(ent.real, ent.imag)
    mats = _normalized(np.array([ent.real, ent.imag]).swapaxes(1, 2))
    last = np.arange(4)
    # the frontier's width, counting the children that _expand skipped
    # because the next cut drops them; len(last) >= min(width, cap - emitted)
    width = 4
    points = []
    emitted = 0
    truncated = False
    scratch = _Scratch()
    for depth in range(1, max_depth + 1):
        room = cap - emitted
        if width > room:
            truncated = True
            mats, last = mats[..., :room], last[:room]
        children = []
        width = 0
        scratch.fit(min(_LEVEL_CHUNK, len(last)))
        for s in range(0, len(last), _LEVEL_CHUNK):
            pts, made, kids = _expand(
                mats[..., s:s + _LEVEL_CHUNK], last[s:s + _LEVEL_CHUNK],
                cands, steps, scratch, eps2, depth >= max_depth, cap - emitted - width,
            )
            if pts is not None:
                points.append(pts)
                emitted += len(pts[1])
            # children past cap - emitted are cut before the next level
            if kids is not None:
                children.append(kids)
                width += made
        if width == 0:
            break
        if len(children) == 1:
            mats, last = children[0]
        else:
            mats = np.concatenate([kid[0] for kid in children], axis=-1)
            last = np.concatenate([kid[1] for kid in children])
    centroids, charts = zip(*points)
    re, im = np.concatenate(centroids, axis=1)
    return re, im, np.concatenate(charts), truncated


def enumerate_limit_set(
    rep: Representation,
    epsilon: float = DEFAULT_EPSILON,
    max_depth: int = DEFAULT_MAX_DEPTH,
    cap: int = DEFAULT_CAP,
) -> LimitPointCloud:
    """Sample the limit set by the pruned traversal of nonbacktracking words.

    The generators must be loxodromic or parabolic: elliptic ones are
    refused, since a branch of finite order never prunes.  The group must be
    non-elementary: two generators, neither +/-identity, with tr[a,b] != 2,
    which holds exactly when they share no fixed point.

    A run is truncated when the whole traversal would emit more than `cap`
    points; it then keeps exactly `cap` points, taken level by level from
    the first open nodes in word order (so the shortest words come first),
    and sets `truncated`.
    """
    kinds = [classify(g).kind for g in rep.images]
    if "elliptic" in kinds:
        raise LimitSetError(
            f"generator {kinds.index('elliptic') + 1} is elliptic: the limit-set "
            "search needs loxodromic or parabolic generators"
        )
    if rep.rank not in (1, 2):
        raise LimitSetError(
            f"the limit-set search takes one or two generators, not {rep.rank}"
        )
    if "identity" in kinds:
        i = kinds.index("identity") + 1
        raise LimitSetError(f"every point is fixed: generator {i} is +/-identity")
    if rep.rank == 1:
        raise ElementaryGroupError("elementary: limit set has <= 2 points")
    a, b = rep.images
    value, _ = _markov(a.trace, b.trace, (a @ b).trace)
    # tr[a,b] - 2
    gap = abs(value - 4.0)
    scale = max(1.0, a.scale() * b.scale())
    bound = COMMUTATOR_TOL * (scale * scale)
    if not (math.isfinite(gap) and math.isfinite(bound)):
        raise LimitSetError(
            "generator entries are too large to compute the commutator trace"
        )
    if gap <= bound:
        raise ElementaryGroupError("elementary: limit set has <= 2 points")
    if not epsilon > 0.0:
        raise LimitSetError("epsilon must be positive")
    if max_depth < 1:
        raise LimitSetError("max_depth must be at least 1")
    if max_depth > MAX_DEPTH:
        raise LimitSetError(
            f"max_depth must be at most MAX_DEPTH = {MAX_DEPTH}, got {max_depth}"
        )
    if cap < 1:
        raise LimitSetError("point cap must be at least 1")
    if cap > MAX_CAP:
        raise LimitSetError(f"point cap must be at most {MAX_CAP}, got {cap}")

    mats = (a, rep.inverses[0], b, rep.inverses[1])
    gens = [m.entries() for m in mats]
    fixes = [_attracting_eigvec(m) for m in mats]
    # a candidate at the infinity of its chart divides by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        re, im, charts, truncated = _traverse(gens, fixes, epsilon, max_depth, cap)
    return _make_cloud(re, im, charts, epsilon, max_depth, truncated)


def circle_deviation(
    cloud: LimitPointCloud, window_radius: float = WINDOW_RADIUS
) -> float:
    """Relative misfit of the best circle (or line, the infinite-radius case)
    through the cloud: max radial deviation over the radius, or max line
    offset over the cloud diameter.

    Both fits are closed forms in the centred moments s_uu, s_vv and s_uv
    of u = x - mean(x) and v = y - mean(y), which are plain numpy sums.  The
    cloud is collinear when their determinant is below 1e-14 times their
    trace squared (a singular-value ratio below 1e-7); the line is then its
    principal axis.  Otherwise the circle is the Kasa fit (Kasa 1976), the
    least-squares solution of x^2 + y^2 = 2 cx x + 2 cy y + c0, whose centre
    solves the 2x2 normal equations in centred coordinates by Cramer's
    rule.  u and v are first scaled by a power of two to modulus below 1,
    so that the moments neither overflow nor underflow at any scale; in the
    normal range the scaling changes no bit of the statistic."""
    z = cloud.plane_values(window_radius)
    if len(z) < MIN_CIRCLE_POINTS:
        raise SparseWindowError(
            f"circle fit needs at least {MIN_CIRCLE_POINTS} points in the window"
        )
    uv = np.stack([z.real - z.real.mean(), z.imag - z.imag.mean()])
    u, v = np.ldexp(uv, -math.frexp(float(np.abs(uv).max()))[1])
    suu, svv, suv = (u * u).sum(), (v * v).sum(), (u * v).sum()
    det = suu * svv - suv * suv
    if det <= 1e-14 * (suu + svv) ** 2:
        # collinear: fit the line through the mean along the principal axis
        angle = 0.5 * math.atan2(2.0 * suv, suu - svv)
        along = u * math.cos(angle) + v * math.sin(angle)
        # coincident points whose mean rounds leave u and v equal, not zero
        diameter = along.max() - along.min()
        if diameter == 0.0:
            raise LimitSetError("degenerate cloud: all points coincide")
        offset = np.abs(v * math.cos(angle) - u * math.sin(angle))
        return float(offset.max() / diameter)
    w = u * u + v * v
    su, sv = 0.5 * (u * w).sum(), 0.5 * (v * w).sum()
    a, b = (su * svv - sv * suv) / det, (suu * sv - suv * su) / det
    r2 = a * a + b * b + w.mean()
    if not r2 > 0.0:
        raise LimitSetError("circle fit is degenerate")
    radius = math.sqrt(r2)
    return float(np.abs(np.hypot(u - a, v - b) - radius).max() / radius)


def _dyadic_slope(counts) -> float:
    """Least-squares slope of log count_k against log(1 / delta_k) for the
    dyadic scales delta_k = delta_0 / 2^k, k < len(counts).  Since
    log(1 / delta_k) = log(1 / delta_0) + k log 2, delta_0 drops out:
    the slope is sum((k - kbar) log count_k) / (sum((k - kbar)^2) log 2)."""
    ks = [k - (len(counts) - 1) / 2.0 for k in range(len(counts))]
    num = sum(k * math.log(count) for k, count in zip(ks, counts))
    return num / (sum(k * k for k in ks) * math.log(2.0))


def box_dimension(cloud: LimitPointCloud) -> float:
    """Box-counting slope over dyadic scales delta_0 / 2^k, k < BOX_LEVELS,
    with delta_0 a quarter of the bounding-box size, on the points within
    WINDOW_RADIUS.

    The cells of the finest scale are found once and their (ix, iy)
    interleaved bit by bit into one Morton key, and the keys are sorted
    once.  Each delta is twice the next finer one, exactly, and so is each
    quotient (x - xmin) / delta, so a point's cell on the coarser scale is
    its finer cell halved: the coarser level's keys are the sorted keys
    shifted right by 2 bits, still sorted.  (Halving is exact while the
    deltas are normal floats, for any size above 2^-1014.)"""
    z = cloud.plane_values(WINDOW_RADIUS)
    if len(z) < MIN_BOX_POINTS:
        raise SparseWindowError(
            f"box counting needs at least {MIN_BOX_POINTS} points in the window"
        )
    x, y = z.real, z.imag
    xmin, ymin = x.min(), y.min()
    size = max(float(x.max() - xmin), float(y.max() - ymin))
    if size == 0.0:
        raise LimitSetError("degenerate cloud: all points coincide")
    finest = size / 4.0 / 2.0 ** (BOX_LEVELS - 1)
    # cell indices on the finest scale are at most 4 * 2^(BOX_LEVELS - 1)
    keys = np.zeros(len(z), dtype=np.int64)
    for t in (x - xmin, y - ymin):
        cells = np.floor(t / finest).astype(np.int64)
        for shift, mask in _SPREAD2:
            cells = (cells | cells << shift) & mask
        keys = keys << 1 | cells
    keys = np.sort(keys)
    counts = []
    for _ in range(BOX_LEVELS):
        keys = keys[_run_starts(keys)]
        counts.append(len(keys))
        keys = keys >> 2
    return _dyadic_slope(counts[::-1])


def check_window(window) -> tuple[float, float, float, float]:
    """The window (re_min, re_max, im_min, im_max) as floats, once it is
    checked to be a finite nonempty rectangle whose width and height are
    finite too (bounds near +/-1e308 can be finite while their difference
    overflows)."""
    bounds = tuple(float(v) for v in window)
    if len(bounds) != 4:
        raise LimitSetError("window needs re_min,re_max,im_min,im_max")
    if not all(math.isfinite(v) for v in bounds):
        raise LimitSetError("window bounds must be finite")
    re_min, re_max, im_min, im_max = bounds
    if not (re_min < re_max and im_min < im_max):
        raise LimitSetError("window must be a nonempty rectangle")
    if not (math.isfinite(re_max - re_min) and math.isfinite(im_max - im_min)):
        raise LimitSetError("window width and height must be finite")
    return bounds


def check_image_size(width: int, height: int) -> None:
    """Refuse an image with a side below one pixel or more than MAX_PIXELS
    pixels, before anything is allocated or searched."""
    if width < 1 or height < 1:
        raise LimitSetError("image dimensions must be positive")
    if width * height > MAX_PIXELS:
        raise LimitSetError(
            f"image of {width} x {height} pixels exceeds the budget of {MAX_PIXELS}"
        )


def render(
    cloud: LimitPointCloud,
    width: int = 800,
    height: int = 800,
    window: tuple[float, float, float, float] = (-2.2, 2.2, -2.2, 2.2),
) -> bytes:
    """Binary PPM (P6): white background, one black pixel per cloud point
    inside the window (re_min, re_max, im_min, im_max)."""
    check_image_size(width, height)
    re_min, re_max, im_min, im_max = check_window(window)
    img = np.full((height, width, 3), 255, dtype=np.uint8)
    z = cloud.plane_values(radius=math.inf)
    fx = (z.real - re_min) / (re_max - re_min)
    fy = (im_max - z.imag) / (im_max - im_min)
    keep = (fx >= 0.0) & (fx <= 1.0) & (fy >= 0.0) & (fy <= 1.0)
    px = np.minimum((fx[keep] * width).astype(np.int64), width - 1)
    py = np.minimum((fy[keep] * height).astype(np.int64), height - 1)
    img[py, px] = 0
    header = b"P6\n%d %d\n255\n" % (width, height)
    return header + img.tobytes()


# Nearest neighbours for cloud_group_invariance come from a hierarchy of
# cubic cells on the sphere lift.  A point's cell of side s on an axis is
# floor((x + 1) / s); with |x| <= 1/2 and s no smaller than _MIN_CELL it
# stays below 2^21, so the three cell indices interleave bit by bit into one
# int64 key in Morton order (Morton 1966).  The key shifted right by 6L bits
# is the point's cell of side s * 4^L, so with the points sorted by key the
# points of any cell on any level are one run, and the children of a cell
# are one run of the level below.
_MIN_CELL = 2.0**-20
# the lift has diameter 1, so one cell of side 2 holds every point: a larger
# side would find the same distances
_MAX_CELL = 2.0
# (shift, mask) steps that move bit k of a 21-bit cell index to bit 3k
_SPREAD = (
    (32, 0x1F00000000FFFF),
    (16, 0x1F0000FF0000FF),
    (8, 0x100F00F00F00F00F),
    (4, 0x10C30C30C30C30C3),
    (2, 0x1249249249249249),
)
# queries descended at once, those of largest bound first
_QUERIES = 128
# (query, cell) or (query, point) pairs in flight before a chunk of queries
# is split: bounds the temporaries where a query is nearly equidistant from
# many points
_PAIRS = 1 << 16
# widening of a cell's box, far above the rounding errors of computed cell
# indices and box faces (about 1e-15 on coordinates below 1.5), so the box
# holds every point keyed to its cell
_MARGIN = 2.0**-40
# relative slack on comparisons of box distances with computed distances,
# far above their rounding errors
_SLACK = 2.0**-20
# cloud points, in Morton order, of which the first is an anchor: its images
# are searched before all others and bound those of the next points (see
# cloud_group_invariance)
_ANCHOR = 16
# added to the bounds from anchors: above the absolute rounding of squares
# that underflow (2^-1075 each), which _SLACK does not cover
_TINY = 2.0**-990


def _cell_keys(coords: np.ndarray, side: float) -> np.ndarray:
    """Morton keys of the cells of side `side` that hold the columns of
    coords (one row per axis)."""
    keys = np.zeros(coords.shape[1], dtype=np.int64)
    for x in coords:
        cells = np.floor((x + 1.0) / side).astype(np.int64)
        for shift, mask in _SPREAD:
            cells = (cells | cells << shift) & mask
        keys = keys << 1 | cells
    return keys


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Indices where a sorted key array takes a new value."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(new)


def _squared(queries: np.ndarray, points: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Squared distances from the columns of queries to the columns `at` of
    points, summed dx*dx + dy*dy + dz*dz left to right with dx = query -
    point.  Gathering one row at a time is about twice as fast as gathering
    the columns."""
    dx, dy, dz = (q - x[at] for q, x in zip(queries, points))
    return dx * dx + dy * dy + dz * dz


class _Nearest:
    """Exact nearest-neighbour squared distances to points on the radius-1/2
    sphere, given one row per axis, from cells of side s * 4^L on levels
    L = 0, 1, ... up to one cell, where s is h kept within _MIN_CELL and
    _MAX_CELL.

    `order` is the points' Morton order, in which `coords` holds them.
    runs[L] says where each cell of level L starts in level L - 1 (in the
    points for L = 0), with the count of that level last, and firsts[L]
    which point comes first in each cell.  The distance from a query to any
    one point bounds its nearest distance from above, and the largest
    distance is a max of minima, so a query whose bound is no more than the
    largest distance found is not searched further.  The largest distance
    found only grows, so batches of queries may be folded through fold in
    any order and split."""

    def __init__(self, points: np.ndarray, h: float):
        self.side = min(h if h >= _MIN_CELL else _MIN_CELL, _MAX_CELL)
        keys = _cell_keys(points, self.side)
        self.order = order = np.argsort(keys, kind="stable")
        self.coords = points[:, order]
        keys = keys[order]
        first = _run_starts(keys)
        self.keys = keys = keys[first]
        self.runs, self.firsts = [np.r_[first, len(order)]], [first]
        while len(keys) > 1:
            keys = keys >> 6
            first = _run_starts(keys)
            self.runs.append(np.r_[first, len(keys)])
            self.firsts.append(self.firsts[-1][first])
            keys = keys[first]

    def bound(self, queries: np.ndarray) -> np.ndarray:
        """The squared distance from each query to the nearer of the two
        points beside its key in key order; one of them is in the query's
        own cell when that cell holds a point."""
        at = self.runs[0][np.searchsorted(self.keys, _cell_keys(queries, self.side))]
        bound = _squared(queries, self.coords, np.maximum(at - 1, 0))
        beside = _squared(queries, self.coords, np.minimum(at, self.coords.shape[1] - 1))
        return np.minimum(bound, beside, out=bound)

    def fold(self, queries: np.ndarray, bound: np.ndarray, best: float) -> float:
        """The larger of best and the queries' largest squared nearest-point
        distance, given an upper bound of each query's.

        The _QUERIES queries of largest bound are descended while some
        bound exceeds the largest distance found so far, since no other
        query can raise it.  bound is lowered in place to each query's
        running minimum, which stays an upper bound of its distance."""
        open_ = bound > best
        rows = np.flatnonzero(open_)
        while rows.size:
            top = rows
            if rows.size > _QUERIES:
                top = rows[np.argpartition(bound[rows], -_QUERIES)[-_QUERIES:]]
            lowered = bound[top]
            best = self._descend(queries[:, top], lowered, best)
            bound[top] = lowered
            open_[top] = False
            rows = rows[open_[rows] & (bound[rows] > best)]
        return best

    def _descend(self, queries, bound, best: float, level=None, query=None, cells=None) -> float:
        """The larger of best and the queries' largest squared nearest-point
        distance, searched down from the top level, or from the (query,
        cell) pairs on `level` when given; bound holds an upper bound of
        each query's distance, lowered in place to its running minimum.

        The cells a query may find its nearest point in are opened into
        their children, and on level 0 into their points.  A chunk with
        more than _PAIRS pairs in flight is split in half: the queries, or
        a lone query's cells, which carry its running minimum from the
        first half into the second."""
        if level is None:
            level = len(self.runs) - 1
            query = np.arange(len(bound))
            cells = np.zeros(len(bound), dtype=np.int64)
        for level in range(level, -1, -1):
            query, cells = self._prune(queries, bound, best, level, query, cells)
            if not query.size:
                return best
            starts = self.runs[level][cells]
            counts = self.runs[level][cells + 1] - starts
            if counts.sum() > _PAIRS and len(bound) > 1:
                half = len(bound) // 2
                best = self._descend(queries[:, :half], bound[:half], best)
                return self._descend(queries[:, half:], bound[half:], best)
            if counts.sum() > _PAIRS and len(cells) > 1:
                half = len(cells) // 2
                self._descend(queries, bound, best, level, query[:half], cells[:half])
                self._descend(queries, bound, best, level, query[half:], cells[half:])
                return max(best, float(bound[0]))
            # the children of every kept cell, grouped by query
            query = query.repeat(counts)
            cells = np.arange(len(query)) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        d2 = _squared(queries[:, query], self.coords, cells)
        groups = _run_starts(query)
        owner = query[groups]
        bound[owner] = np.minimum(bound[owner], np.minimum.reduceat(d2, groups))
        return max(best, float(bound[owner].max()))

    def _prune(self, queries, bound, best: float, level: int, query, cells):
        """The pairs of query and cell on `level` where the query may find
        its nearest point, once each query's bound has fallen to the nearest
        first point of its cells: those whose cell box, widened by _MARGIN,
        lies within the bound while the bound exceeds best."""
        at = queries[:, query]
        first = self.firsts[level][cells]
        d2 = _squared(at, self.coords, first)
        groups = _run_starts(query)
        owner = query[groups]
        bound[owner] = np.minimum(bound[owner], np.minimum.reduceat(d2, groups))
        # each cell's box from the level-0 index of its first point, as
        # _cell_keys computes it (the division by 4^level is exact)
        side = self.side * 4.0**level
        low = np.floor((self.coords[:, first] + 1.0) / self.side / 4.0**level) * side - (1.0 + _MARGIN)
        gap = np.maximum(np.maximum(low - at, at - low - (side + 2.0 * _MARGIN)), 0.0)
        limit = bound[query]
        keep = ((gap * gap).sum(axis=0) * (1.0 - _SLACK) <= limit) & (limit > best)
        return query[keep], cells[keep]


def _anchored_max(nearest: _Nearest, images, anchors, roots, of, best: float) -> float:
    """The larger of best and the largest squared nearest-point distance of
    the images, given as (axis, generator, point), when image j of
    generator g has the anchor anchors[:, g, of[j]], already folded, whose
    nearest distance is at most roots[g, of[j]].

    An image q whose anchor a has the bound R^2 is no farther from its
    nearest point than R + |q - a|, by the triangle inequality; widened by
    _SLACK and _TINY for rounding, that bound settles most images without a
    key search, and only those whose bound still exceeds the largest
    distance found are bounded in key order and descended."""
    for g in range(images.shape[1]):
        queries = images[:, g]
        bound = np.sqrt(_squared(queries, anchors[:, g], of))
        bound += roots[g, of]
        bound *= bound
        bound *= 1.0 + _SLACK
        bound += _TINY
        rows = np.flatnonzero(bound > best)
        if rows.size:
            queries = queries[:, rows]
            best = nearest.fold(queries, np.minimum(nearest.bound(queries), bound[rows]), best)
    return best


def cloud_group_invariance(cloud: LimitPointCloud, rep: Representation) -> float:
    """One-sided chordal distance from the generator-mapped cloud back to the
    cloud: small values witness invariance of the sampled set under the
    group.

    The nearest cloud point of every image is found exactly where it can
    matter, in cubic cells on the sphere lift of side 2 * cloud.epsilon
    times 1, 4, 16, ..., so the value is the one a KD-tree query gives, to
    the last bit.  The cloud is walked in the cells' Morton order, so
    neighbouring points have neighbouring images, and each image under
    every generator and inverse is made once:

    - first the images of every _ANCHOR-th point, the anchors, are bounded
      by the points beside them in key order and folded into the largest
      distance found (see _Nearest.fold), so that bound is already tight
      when the other images come;
    - then the other images, _CHUNK cloud points at a time so the
      temporaries do not grow with the cloud, are each bounded by its
      anchor's bound plus its distance to the anchor (see _anchored_max),
      and only those whose bound exceeds the largest distance found are
      bounded in key order, then searched down the cells, largest bound
      first.

    Repeated points are searched once."""
    if len(cloud) == 0:
        raise LimitSetError("empty cloud")
    vals = cloud.values
    charts = cloud.charts
    # a sorted cloud holds repeats next to each other
    keep = np.ones(len(vals), dtype=bool)
    keep[1:] = (vals[1:] != vals[:-1]) | (charts[1:] != charts[:-1])
    if not keep.all():
        vals, charts = vals[keep], charts[keep]
    nearest = _Nearest(_lift(vals, charts), 2.0 * cloud.epsilon)
    vals, charts = vals[nearest.order], charts[nearest.order]
    entries = [g.entries() for g in rep.images + rep.inverses]
    anchors = _image_lifts(entries, vals[::_ANCHOR], charts[::_ANCHOR])
    flat = anchors.reshape(3, -1)
    bound = nearest.bound(flat)
    best = nearest.fold(flat, bound, 0.0)
    roots = np.sqrt(bound).reshape(len(entries), -1)
    for s in range(0, len(vals), _CHUNK):
        i = np.arange(s, min(s + _CHUNK, len(vals)))
        i = i[i % _ANCHOR != 0]
        if i.size:
            images = _image_lifts(entries, vals[i], charts[i])
            best = _anchored_max(nearest, images, anchors, roots, i // _ANCHOR, best)
    return math.sqrt(best)


def _image_lifts(entries, vals: np.ndarray, charts: np.ndarray) -> np.ndarray:
    """Sphere lifts of the images of the points (vals, charts) under the
    matrices with the given entries, as (axis, matrix, point).

    A point is the homogeneous pair (u, v) = (z, 1) in chart 0 and (1, z)
    in chart 1, split once into contiguous real and imaginary parts that
    every matrix shares.  The products are spelled out on those parts as
    CPython forms them, since numpy's SIMD loops for complex products may
    fuse a multiply and an add, and each step writes into a buffer made
    once per call."""
    n = len(vals)
    chart0 = charts == 0
    ur, ui = np.where(chart0, vals.real, 1.0), np.where(chart0, vals.imag, 0.0)
    vr, vi = np.where(chart0, 1.0, vals.real), np.where(chart0, 0.0, vals.imag)
    lifts = np.empty((3, len(entries), n))
    nu, nv = np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128)
    scratch = np.empty((3, n))
    x, y, t = scratch
    take0 = np.empty(n, dtype=bool)
    for k, (a, b, c, d) in enumerate(entries):
        for out, p, q in ((nu, a, b), (nv, c, d)):
            # (p.real * pu -+ p.imag * pv) + (q.real * qu -+ q.imag * qv)
            for part, sub, (pu, pv, qu, qv) in (
                (out.real, np.subtract, (ur, ui, vr, vi)),
                (out.imag, np.add, (ui, ur, vi, vr)),
            ):
                sub(np.multiply(p.real, pu, out=x), np.multiply(p.imag, pv, out=t), out=x)
                sub(np.multiply(q.real, qu, out=y), np.multiply(q.imag, qv, out=t), out=y)
                np.add(x, y, out=part)
        np.less_equal(np.abs(nu, out=x), np.abs(nv, out=y), out=take0)
        # nv (resp. nu) is nonzero wherever take0 (resp. not): the images
        # are genuine sphere points
        w = np.where(take0, nu, nv)
        np.divide(w, np.where(take0, nv, nu), out=w)
        _lift_into(lifts[:, k], w.real, w.imag, take0, scratch)
    return lifts


def _cloud_csv(cloud: LimitPointCloud) -> bytes:
    # imported here, so only a call that formats builds the formatter's tables
    from ._csvfmt import csv_bytes

    values = cloud.values
    return csv_bytes("re,im,chart", [values.real, values.imag, cloud.charts])


def format_cloud_csv(cloud: LimitPointCloud) -> str:
    return _cloud_csv(cloud).decode("ascii")


def write_cloud_csv(path, cloud: LimitPointCloud) -> None:
    with open(path, "wb") as fh:
        fh.write(_cloud_csv(cloud))
