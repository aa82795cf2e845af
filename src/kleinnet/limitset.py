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
    """Radius-1/2 sphere lift of chart coordinates, one row per point; the
    chordal metric is the Euclidean distance between lifts."""
    re = values.real
    im = values.imag
    n2 = re * re + im * im
    den = 1.0 + n2
    chart0 = charts == 0
    lift = np.empty((len(values), 3))
    lift[:, 0] = re / den
    lift[:, 1] = np.where(chart0, 1.0, -1.0) * im / den
    lift[:, 2] = np.where(chart0, n2 - 1.0, 1.0 - n2) / (2.0 * den)
    return lift


def _make_cloud(
    re: np.ndarray,
    im: np.ndarray,
    charts: np.ndarray,
    epsilon: float,
    max_depth: int,
    truncated: bool,
) -> LimitPointCloud:
    order = np.lexsort((charts, im, re))
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
# rows handled at once (invariance queries): bounds the temporaries
_CHUNK = 1 << 15
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


def _multiplier(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Products with w = re + i*im as sums of real products: m*w has re
    part m.re*re + m.im*(-im) and im part m.re*im + m.im*re, so the table
    holds (re, im) at index 0 of its first axis (m's part) and (-im, re) at
    index 1.  The axis of the product's part comes after the first axis of
    re and im."""
    return np.ascontiguousarray(np.array([[re, im], [-im, re]]).swapaxes(1, 2))


def _product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The sums over c of m[c] x[c] for complex m and x: m has axes (re/im,
    c, ...) and x is a _multiplier table, broadcast against m.  Each
    product is re*re - im*im and re*im + im*re, and the sum over c runs
    left to right."""
    p = m * x
    p = p[0] + p[1]
    return p[0] + p[1]


def _normalized(m: np.ndarray) -> np.ndarray:
    """Matrices with axes (re/im, column, row, node) over their entries'
    largest |re| + |im|.  The quotient is spelled as CPython divides a
    complex by a float (the float is promoted to complex), which keeps
    signed zeros: re + im*0.0 and im - re*0.0, over the scale."""
    a = np.abs(m)
    s = (a[0] + a[1]).reshape(4, -1).max(axis=0)
    return (m + m[::-1] * _QUOTIENT_ZEROS) / s


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
    norm = sq[:, 0] + sq[:, 1]
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
    z = (p * q[0] + p[::-1] * (q[1] * _CONJUGATE)) / d
    ends = np.take(z, _DIAMETER_ENDS[k], axis=1).reshape(2, 2, -1, len(use0))
    dz = ends[:, 0] - ends[:, 1]
    dz = dz * dz
    diam2 = np.fmax.reduce(dz[0] + dz[1], axis=0, initial=0.0)
    emit = np.logical_and(diam2 < eps2, uniform)
    if at_floor:
        emit[:] = True
    if not emit.any():
        return emit, None
    in_chart = np.where(use0, fits[0], fits[1])
    z = np.where(in_chart, z, 0.0)[..., emit]
    c = 0.0 + z[:, 0]
    for i in range(1, k):
        c = c + z[:, i]
    use0 = use0[emit]
    return emit, (c / np.where(use0, *counts[:, emit]), np.where(use0, 0, 1))


def _expand(mats, last, cands, steps, eps2: float, at_floor: bool, room: int):
    """One chunk of a level: nodes with prefix matrices `mats` (as
    _normalized returns them) and last letters `last`.  cands and steps are
    the _multiplier tables of the candidates after each last letter and of
    the letters' matrices.  `room` is cap less the level's points and
    children so far.  This chunk's points take from it too, and the next
    level cuts the children past it, so only the first ceil(room / 3) open
    nodes are expanded.

    Returns the points of the emitting nodes (None if there are none), the
    number of children all open nodes have, and the children made, each
    node's in letter order (None when no room is left)."""
    uv = _product(mats[:, :, :, None, None], np.take(cands, last, axis=-1)[:, :, None])
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
    child_last = _NEXT[last].ravel()
    parents = mats.repeat(3, axis=-1)[:, :, None, None]
    children = _product(parents, np.take(steps, child_last, axis=-1)[:, :, :, :, None])
    return points, made, (_normalized(children), child_last)


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
    for depth in range(1, max_depth + 1):
        room = cap - emitted
        if width > room:
            truncated = True
            mats, last = mats[..., :room], last[:room]
        children = []
        width = 0
        for s in range(0, len(last), _LEVEL_CHUNK):
            pts, made, kids = _expand(
                mats[..., s:s + _LEVEL_CHUNK], last[s:s + _LEVEL_CHUNK],
                cands, steps, eps2, depth >= max_depth, cap - emitted - width,
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
    if cap < 1:
        raise LimitSetError("point cap must be at least 1")

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
    offset over the cloud diameter."""
    z = cloud.plane_values(window_radius)
    if len(z) < MIN_CIRCLE_POINTS:
        raise SparseWindowError(
            f"circle fit needs at least {MIN_CIRCLE_POINTS} points in the window"
        )
    x, y = z.real, z.imag
    centered = np.column_stack([x - x.mean(), y - y.mean()])
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    if sv[0] == 0.0:
        raise LimitSetError("degenerate cloud: all points coincide")
    if sv[1] / sv[0] < 1e-7:
        # collinear: fit the line through the mean along the top axis
        along = centered @ vt[0]
        offset = np.abs(centered @ vt[1])
        diameter = float(along.max() - along.min())
        return float(offset.max() / diameter)
    design = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    target = x * x + y * y
    (cx, cy, c0), *_ = np.linalg.lstsq(design, target, rcond=None)
    r2 = c0 + cx * cx + cy * cy
    if not r2 > 0.0:
        raise LimitSetError("circle fit is degenerate")
    radius = math.sqrt(r2)
    radial = np.hypot(x - cx, y - cy)
    return float(np.abs(radial - radius).max() / radius)


def box_dimension(cloud: LimitPointCloud) -> float:
    """Box-counting slope over dyadic scales delta_0 / 2^k, k < BOX_LEVELS,
    with delta_0 a quarter of the bounding-box size, on the points within
    WINDOW_RADIUS."""
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
    log_inv_delta = []
    log_counts = []
    for k in range(BOX_LEVELS):
        delta = size / 4.0 / (2.0**k)
        ix = np.floor((x - xmin) / delta).astype(np.int64)
        iy = np.floor((y - ymin) / delta).astype(np.int64)
        count = len(_run_starts(np.sort(ix << 32 | iy)))
        log_inv_delta.append(math.log(1.0 / delta))
        log_counts.append(math.log(count))
    slope = np.polyfit(log_inv_delta, log_counts, 1)[0]
    return float(slope)


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


# Nearest neighbours for cloud_group_invariance come from uniform grids of
# cubic cells on the sphere lift.  The cell index along an axis is
# floor((x + 1) / side) + 1; with |x| <= 1/2 and cells no smaller than
# _MIN_CELL it stays below 2^21, so three indices pack into one int64 key.
_MIN_CELL = 2.0**-20
# the lift has diameter 1, so the block of a cell of side 2 holds every point
# and every query settles there: a larger finest side would find the same
# distances, and its squared half-side may overflow
_MAX_CELL = 2.0
# key offsets of the four z-columns of a 2x2x2 block of cells; the two
# cells of a column have consecutive keys, so their points are one run of
# the sorted keys
_COLUMNS = np.array(
    [(dx << 42) | (dy << 21) for dx in (0, 1) for dy in (0, 1)], dtype=np.int64
)
# query-to-point distances computed at once: bounds the temporaries even
# where many points crowd a few cells
_PAIRS = 1 << 16
# relative slack on bounds built from computed cell indices and distances,
# far above their rounding errors
_SLACK = 2.0**-20


def _cell_keys(columns, side: float, shift: float) -> np.ndarray:
    """Cell keys of the points with coordinate arrays columns[0..2]."""
    keys = np.zeros(len(columns[0]), dtype=np.int64)
    for x, bits in zip(columns, (42, 21, 0)):
        cells = np.floor((x + 1.0) / side - shift).astype(np.int64) + 1
        keys |= cells << bits
    return keys


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Indices where a sorted key array takes a new value."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(new)


class _Grid(Record):
    """Points in cubic cells of one side: the cell side, the sorted keys of
    the nonempty cells, where each cell's points start (and, last, the
    point count), and for each point its index into coords, the coordinate
    arrays sorted by cell on the finest grid (None on that grid, where it
    is the identity).  Record gives it only its constructor and its refusal
    of assignment: a grid holds arrays, so it is never compared, hashed or
    pickled."""

    __slots__ = ("side", "keys", "starts", "index", "coords")

    def coarser(self) -> "_Grid":
        """The grid of side 4 * side, made from this grid's cells: a cell of
        side 4s is a block of 4x4x4 cells of side s."""
        x, y, z = ((((self.keys >> b) & 0x1FFFFF) - 1) // 4 + 1 for b in (42, 21, 0))
        keys = (x << 42) | (y << 21) | z
        cells = np.argsort(keys, kind="stable")
        keys = keys[cells]
        counts = np.diff(self.starts)[cells]
        starts = np.cumsum(counts) - counts
        # the cells' runs of points, in the new order of the cells
        at = np.arange(self.starts[-1]) + np.repeat(self.starts[cells] - starts, counts)
        index = at.astype(np.int32) if self.index is None else self.index[at]
        first = _run_starts(keys)
        starts = np.r_[starts[first], self.starts[-1]]
        return _Grid(4.0 * self.side, keys[first], starts, index, self.coords)

    def _finest(self, at: np.ndarray) -> np.ndarray:
        """The positions in coords of the points at positions `at` here."""
        return at if self.index is None else self.index[at]

    def block_nearest_sq(self, queries: np.ndarray) -> np.ndarray:
        """Squared distance from each query to the nearest point in the
        2x2x2 block of cells centred on it (inf where the block is empty)."""
        base = _cell_keys(queries.T, self.side, 0.5)
        order = np.argsort(base, kind="stable")
        base = base[order]
        # queries sharing a block look it up once
        first = _run_starts(base)
        # one row of needles per column of the block, each row sorted
        needles = base[first] + _COLUMNS[:, None]
        run_start = self.starts[np.searchsorted(self.keys, needles)]
        run_end = self.starts[np.searchsorted(self.keys, needles + 2)]
        repeats = np.diff(np.r_[first, len(base)])
        best = np.empty(len(queries))
        best[order] = self.runs_nearest_sq(
            queries[order],
            run_start.T.repeat(repeats, axis=0),
            (run_end - run_start).T.repeat(repeats, axis=0),
        )
        return best

    def own_cell_sq(self, queries: np.ndarray):
        """Whether each query's own cell holds a point, and for those that
        do, the squared distance to the first point of the cell, summed as
        runs_nearest_sq sums it."""
        keys = _cell_keys(queries.T, self.side, 0.0)
        at = np.searchsorted(self.keys, keys)
        hit = np.take(self.keys, at, mode="clip") == keys
        first = self._finest(self.starts[at[hit]])
        found = queries[hit]
        dx, dy, dz = (found[:, k] - self.coords[k][first] for k in range(3))
        return hit, dx * dx + dy * dy + dz * dz

    def runs_nearest_sq(self, queries, starts, counts) -> np.ndarray:
        """Squared distance from query i to the nearest of the points at
        positions starts[i, j] + range(counts[i, j]) (inf if none).  The
        distance is summed dx*dx + dy*dy + dz*dz, left to right."""
        per_query = counts.sum(axis=1)
        ends = np.cumsum(per_query)
        best = np.full(len(queries), np.inf)
        i = 0
        while i < len(queries):
            done = ends[i - 1] if i else 0
            j = max(i + 1, int(np.searchsorted(ends, done + _PAIRS, "right")))
            c = counts[i:j].ravel()
            # position of every (query, candidate) pair, grouped by query
            point = np.arange(c.sum()) + np.repeat(starts[i:j].ravel() - (np.cumsum(c) - c), c)
            point = self._finest(point)
            dx, dy, dz = (
                queries[i:j, k].repeat(per_query[i:j]) - self.coords[k][point]
                for k in range(3)
            )
            d2 = dx * dx + dy * dy + dz * dz
            has = np.flatnonzero(per_query[i:j])
            if has.size:
                offsets = ends[i:j] - per_query[i:j] - done
                best[i + has] = np.minimum.reduceat(d2, offsets[has])
            i = j
        return best


class _Nearest:
    """Exact nearest-neighbour squared distances to points on the radius-1/2
    sphere, from grids of side s * 4^k for k = 0, 1, ..., each made from the
    one below it on first use, where s is h kept within _MIN_CELL and
    _MAX_CELL.

    The 2x2x2 block of cells centred on a query holds every point within
    side/2 of it, so a query whose block holds such a point is settled
    exactly, and it is nearer than every query its block leaves unsettled.
    The distance from a query to any one point bounds its nearest distance
    from above, and the largest distance is a max of minima, so a query
    whose bound is no more than the largest distance found is not searched
    further."""

    def __init__(self, points: np.ndarray, h: float):
        side = min(h if h >= _MIN_CELL else _MIN_CELL, _MAX_CELL)
        keys = _cell_keys(points.T, side, 0.0)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = _run_starts(keys)
        coords = [x[order] for x in points.T]
        self.grids = [_Grid(side, keys[first], np.r_[first, len(keys)], None, coords)]

    def grid(self, level: int) -> _Grid:
        if level == len(self.grids):
            self.grids.append(self.grids[-1].coarser())
        return self.grids[level]

    def own_cell_sq(self, queries: np.ndarray) -> np.ndarray:
        """An upper bound on each query's squared nearest-point distance:
        the squared distance to the first point of its own cell on the grid
        of side h, else on the grid of side 4h, and inf where both cells
        are empty."""
        hit, d2 = self.grid(0).own_cell_sq(queries)
        bound = np.full(len(queries), np.inf)
        bound[hit] = d2
        rows = np.flatnonzero(~hit)
        hit, d2 = self.grid(1).own_cell_sq(queries[rows])
        bound[rows[hit]] = d2
        return bound

    def max_squared(self, batches) -> float:
        """The largest squared nearest-point distance over the query arrays
        in `batches`, which is iterated a second time when the bound below
        needs it: a list, or an object whose iterator recomputes them.

        A query whose own cell holds a point at squared distance u cannot
        raise the largest distance once u is no more than the largest
        distance found.  So only the "open" queries, whose own cells on the
        grids of side h and 4h are both empty, are searched on the first
        pass, _CHUNK or more at a time.  A second pass searches the other
        queries whose bound u exceeds the largest distance found so far; it
        runs only when one does."""
        best = 0.0
        largest_bound = 0.0
        held: list[np.ndarray] = []
        n_held = 0
        for queries in batches:
            u = self.own_cell_sq(queries)
            closed = u < np.inf
            largest_bound = float(np.max(u, where=closed, initial=largest_bound))
            held.append(queries[~closed])
            n_held += len(held[-1])
            if n_held >= _CHUNK:
                best = self._search(np.concatenate(held), best)
                held, n_held = [], 0
        if n_held:
            best = self._search(np.concatenate(held), best)
        if largest_bound > best:
            for queries in batches:
                u = self.own_cell_sq(queries)
                best = self._search(queries[(u > best) & (u < np.inf)], best)
        return best

    def _search(self, queries: np.ndarray, best: float, level: int = 0) -> float:
        """The larger of best and the queries' largest squared
        nearest-point distance, searched from the grid of side h * 4^level.

        A query its block leaves unsettled waits with a bound: the nearest
        point of its block, else the first point of its own cell on the next
        grid.  One with neither goes on to the next grid at once, so the
        farthest queries raise best before the waiting ones are weighed."""
        while len(queries):
            grid = self.grid(level)
            d2 = grid.block_nearest_sq(queries)
            # a block holds every point within side/2 of its query
            settled = d2 <= (0.5 * grid.side * (1.0 - _SLACK)) ** 2
            best = float(np.max(d2, where=settled, initial=best))
            queries, bound = queries[~settled], d2[~settled]
            level += 1
            empty = np.flatnonzero(bound == np.inf)
            if empty.size:
                hit, d2 = self.grid(level).own_cell_sq(queries[empty])
                bound[empty[hit]] = d2
                best = self._search(queries[empty[~hit]], best, level)
            queries = queries[(bound > best) & (bound < np.inf)]
        return best


def cloud_group_invariance(cloud: LimitPointCloud, rep: Representation) -> float:
    """One-sided chordal distance from the generator-mapped cloud back to the
    cloud: small values witness invariance of the sampled set under the
    group.

    The nearest cloud point of every image is found exactly where it can
    matter, by uniform grids on the sphere lift with cells of side
    2 * cloud.epsilon times 1, 4, 16, ..., so the value is the one a
    KD-tree query gives, to the last bit.  An image is searched on the next
    grid only while the distance to some cloud point, which bounds its
    nearest distance, exceeds the largest distance found (see _Nearest).
    The images are computed _CHUNK cloud points at a time, so the
    temporaries do not grow with the cloud.  Repeated points are searched
    once."""
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
    images = _Images([g.entries() for g in rep.images + rep.inverses], vals, charts)
    return math.sqrt(nearest.max_squared(images))


class _Images(Record):
    """Sphere lifts of the images of the chart values `vals` (with their
    `charts`) under each matrix, given by its (a, b, c, d) `entries`.
    Every iteration computes them afresh, _CHUNK points at a time, and
    yields the images of those points under all the matrices as one
    array.  Like _Grid, it takes from Record only the constructor and the
    refusal of assignment, and is never compared, hashed or pickled."""

    __slots__ = ("entries", "vals", "charts")

    def __iter__(self):
        for s in range(0, len(self.vals), _CHUNK):
            vals = self.vals[s:s + _CHUNK]
            chart0 = self.charts[s:s + _CHUNK] == 0
            u = np.where(chart0, vals, np.ones_like(vals))
            v = np.where(chart0, np.ones_like(vals), vals)
            yield np.concatenate([_image_lift(g, u, v) for g in self.entries])


def _image_lift(g, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sphere lift of the images of the homogeneous points (u, v) under the
    matrix with entries g.  The products are spelled out on real and
    imaginary parts as CPython forms them, since numpy's SIMD loops for
    complex products may fuse a multiply and an add."""
    a, b, c, d = g
    nu, nv = np.empty_like(u), np.empty_like(u)
    for out, p, q in ((nu, a, b), (nv, c, d)):
        out.real = (p.real * u.real - p.imag * u.imag) + (q.real * v.real - q.imag * v.imag)
        out.imag = (p.real * u.imag + p.imag * u.real) + (q.real * v.imag + q.imag * v.real)
    take0 = np.abs(nu) <= np.abs(nv)
    # nv (resp. nu) is nonzero wherever take0 (resp. not): the images are
    # genuine sphere points
    new_vals = np.where(take0, nu, nv) / np.where(take0, nv, nu)
    return _lift(new_vals, np.where(take0, 0, 1).astype(np.int8))


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
