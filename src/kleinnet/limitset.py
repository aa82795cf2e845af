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
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ElementaryGroupError, LimitSetError
from .sl2 import Matrix2C, Representation, classify, make_rep

__all__ = [
    "from_traces",
    "LimitPointCloud",
    "enumerate_limit_set",
    "circle_deviation",
    "box_dimension",
    "render",
    "check_window",
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
# the largest image render draws: 8192 x 8192, 192 MiB of pixels
MAX_PIXELS = 1 << 26


def _attracting_eigvec(m: Matrix2C) -> tuple[complex, complex]:
    """Homogeneous attracting fixed point: the eigenvector of the eigenvalue
    of larger modulus, scaled so the larger component has modulus 1."""
    a, b, c, d = m.entries()
    tr = a + d
    sq = cmath.sqrt(tr * tr - 4.0)
    mu = (tr + sq) / 2.0
    alt = (tr - sq) / 2.0
    if abs(alt) > abs(mu):
        mu = alt
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
    sq = cmath.sqrt(z * z - 4.0)
    mu = (-z + sq) / 2.0
    alt = (-z - sq) / 2.0
    if abs(alt) > abs(mu):
        mu = alt
    a = Matrix2C(x, 1.0, -1.0, 0.0)
    b = Matrix2C(0.0, mu, -1.0 / mu, y)
    return make_rep([a, b])

@dataclass(frozen=True, eq=False)
class LimitPointCloud:
    """Sampled limit set: chart coordinates, chart flags, and the sampling
    parameters.  Points are sorted by (re, im, chart) so output is
    independent of traversal scheduling."""

    values: np.ndarray
    charts: np.ndarray
    epsilon: float
    max_depth: int
    truncated: bool = False

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def plane_values(self, radius: float = WINDOW_RADIUS) -> np.ndarray:
        """Plane coordinates of the points with |z| <= radius (points at or
        near infinity fall outside every finite window)."""
        vals = self.values
        charts = self.charts
        out = np.empty_like(vals)
        mask0 = charts == 0
        out[mask0] = vals[mask0]
        w = vals[~mask0]
        plane = np.full(w.shape, np.inf + 0j)
        nz = w != 0
        plane[nz] = 1.0 / w[nz]
        out[~mask0] = plane
        mag = np.abs(out)
        keep = np.isfinite(mag) & (mag <= radius)
        return out[keep]


def _lift(values: np.ndarray, charts: np.ndarray) -> np.ndarray:
    """Radius-1/2 sphere lift of chart coordinates, one row per point; the
    chordal metric is the Euclidean distance between lifts."""
    re = values.real
    im = values.imag
    n2 = re * re + im * im
    den = 1.0 + n2
    sign = np.where(charts == 0, 1.0, -1.0)
    height = np.where(charts == 0, n2 - 1.0, 1.0 - n2)
    return np.column_stack([re / den, sign * im / den, height / (2.0 * den)])


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


# Complex numbers in the traversal are (re, im) pairs of float arrays, and
# the arithmetic is CPython's naive formulas written out, so results do not
# depend on how numpy or the interpreter evaluates complex products.


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _normalized(m):
    """Entries of m over their largest |re| + |im|, stacked as rows re, im
    per entry.  The quotient is spelled as CPython divides a complex by a
    float (the float is promoted to complex), which keeps signed zeros."""
    s = np.maximum.reduce([np.abs(re) + np.abs(im) for re, im in m])
    return np.array(
        [x for re, im in m for x in ((re + im * 0.0) / s, (im - re * 0.0) / s)]
    )


def _entries(rows):
    """The four (re, im) entry pairs of matrices stacked as _normalized
    returns them."""
    return list(zip(rows[0::2], rows[1::2]))


# letters 0=a, 1=a^-1, 2=b, 3=b^-1; after letter l come the letters h != l^1
_NEXT = np.array([[h for h in range(4) if h != l ^ 1] for l in range(4)])
# rows handled at once (frontier nodes of one level, invariance queries, CSV
# rows): bounds the temporaries
_CHUNK = 1 << 15


def _node_points(u, v, eps2: float, at_floor: bool):
    """Evaluate nodes whose candidate points are u/v, shape (nodes, k).

    A node emits when its candidates fit one chart and have squared
    diameter below eps2, and always at the depth floor, where a candidate
    set straddling the charts takes the majority chart.  The emitted point
    is the centroid of the candidates in that chart.  Returns the emit mask
    and, for every node, the centroid and chart.
    """
    k = u[0].shape[1]
    nu = u[0] * u[0] + u[1] * u[1]
    nv = v[0] * v[0] + v[1] * v[1]
    fits0 = nu <= 4.0 * nv
    fits1 = nv <= 4.0 * nu
    all0 = fits0.all(axis=1)
    all1 = fits1.all(axis=1)
    use0 = all0 | (~all1 & (2 * fits0.sum(axis=1) >= k))
    w0 = use0[:, None]
    in_chart = np.where(w0, fits0, fits1)
    p = (np.where(w0, u[0], v[0]), np.where(w0, u[1], v[1]))
    q = (np.where(w0, v[0], u[0]), np.where(w0, v[1], u[1]))
    d = np.where(w0, nv, nu)
    with np.errstate(divide="ignore", invalid="ignore"):
        zr = (p[0] * q[0] + p[1] * q[1]) / d
        zi = (p[1] * q[0] - p[0] * q[1]) / d
    diam2 = np.zeros(len(use0))
    for i, j in combinations(range(k), 2):
        dr = zr[:, i] - zr[:, j]
        di = zi[:, i] - zi[:, j]
        diam2 = np.fmax(diam2, dr * dr + di * di)
    emit = ((all0 | all1) & (diam2 < eps2)) | at_floor
    cr = ci = 0.0
    for i in range(k):
        cr = cr + np.where(in_chart[:, i], zr[:, i], 0.0)
        ci = ci + np.where(in_chart[:, i], zi[:, i], 0.0)
    n = in_chart.sum(axis=1)
    return emit, cr / n, ci / n, np.where(use0, 0, 1)


def _expand(rows, last, g, fu, fv, eps2: float, at_floor: bool):
    """One chunk of a level: nodes with prefix matrices `rows` (as
    _normalized stacks them) and last letters `last`.  Returns the points of
    the emitting nodes and the open nodes' children, each node's children
    in letter order."""
    m = _entries(rows)
    nxt = _NEXT[last]
    cu = (fu[0][nxt], fu[1][nxt])
    cv = (fv[0][nxt], fv[1][nxt])
    col = [(re[:, None], im[:, None]) for re, im in m]
    u = _add(_mul(col[0], cu), _mul(col[1], cv))
    v = _add(_mul(col[2], cu), _mul(col[3], cv))
    emit, cr, ci, chart = _node_points(u, v, eps2, at_floor)
    grow = ~emit
    child_last = nxt[grow].ravel()
    p = [(re[grow].repeat(3), im[grow].repeat(3)) for re, im in m]
    gh = [(re[child_last], im[child_last]) for re, im in g]
    child_rows = _normalized([
        _add(_mul(p[0], gh[0]), _mul(p[1], gh[2])),
        _add(_mul(p[0], gh[1]), _mul(p[1], gh[3])),
        _add(_mul(p[2], gh[0]), _mul(p[3], gh[2])),
        _add(_mul(p[2], gh[1]), _mul(p[3], gh[3])),
    ])
    return (cr[emit], ci[emit], chart[emit]), (child_rows, child_last)


def _traverse(gens, fixes, epsilon: float, max_depth: int, cap: int):
    """Points of the pruned word traversal, in level order and word order
    within a level, and whether the point cap cut the traversal short.

    gens are the (a, b, c, d) entries of a, a^-1, b, b^-1 and fixes their
    homogeneous attracting fixed points.  Every open node emits at least one
    point, so before each level the frontier is cut to its first
    cap - emitted nodes: a run is truncated exactly when the whole traversal
    would emit more than cap points, and then it returns exactly cap points.
    """
    eps2 = epsilon * epsilon
    g = [(np.array([m[e].real for m in gens]), np.array([m[e].imag for m in gens]))
         for e in range(4)]
    fu = (np.array([f[0].real for f in fixes]), np.array([f[0].imag for f in fixes]))
    fv = (np.array([f[1].real for f in fixes]), np.array([f[1].imag for f in fixes]))

    # depth 0: the identity prefix, all four letters allowed
    emit, cr, ci, chart = _node_points(
        (fu[0][None], fu[1][None]), (fv[0][None], fv[1][None]), eps2, False
    )
    if emit[0]:
        return cr, ci, chart, False

    rows, last = _normalized(g), np.arange(4)
    points = []
    emitted = 0
    truncated = False
    for depth in range(1, max_depth + 1):
        room = cap - emitted
        if len(last) > room:
            truncated = True
            rows, last = rows[:, :room], last[:room]
        children = []
        n_children = 0
        for s in range(0, len(last), _CHUNK):
            pts, kids = _expand(
                rows[:, s:s + _CHUNK], last[s:s + _CHUNK],
                g, fu, fv, eps2, depth >= max_depth,
            )
            points.append(pts)
            emitted += len(pts[0])
            # children past cap - emitted would be cut before the next level
            if n_children < cap - emitted:
                children.append(kids)
                n_children += len(kids[1])
        if n_children == 0:
            break
        rows = np.concatenate([kid[0] for kid in children], axis=1)
        last = np.concatenate([kid[1] for kid in children])
    re, im, charts = (np.concatenate(col) for col in zip(*points))
    return re, im, charts, truncated


def enumerate_limit_set(
    rep: Representation,
    epsilon: float = DEFAULT_EPSILON,
    max_depth: int = DEFAULT_MAX_DEPTH,
    cap: int = DEFAULT_CAP,
) -> LimitPointCloud:
    """Sample the limit set by the pruned traversal of nonbacktracking words.

    The group must be non-elementary: two generators, neither +/-identity,
    with tr[a,b] != 2, which holds exactly when they share no fixed point.

    A run is truncated when the whole traversal would emit more than `cap`
    points; it then keeps exactly `cap` points, taken level by level from
    the first open nodes in word order (so the shortest words come first),
    and sets `truncated`.
    """
    if rep.rank not in (1, 2):
        raise LimitSetError(
            f"the limit-set search takes one or two generators, not {rep.rank}"
        )
    for i, g in enumerate(rep.images, start=1):
        if classify(g).kind == "identity":
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
    re, im, charts, truncated = _traverse(gens, fixes, epsilon, max_depth, cap)
    return _make_cloud(re, im, charts, epsilon, max_depth, truncated)


def circle_deviation(
    cloud: LimitPointCloud, window_radius: float = WINDOW_RADIUS
) -> float:
    """Relative misfit of the best circle (or line, the infinite-radius case)
    through the cloud: max radial deviation over the radius, or max line
    offset over the cloud diameter."""
    if len(cloud) < 10:
        raise LimitSetError("circle fit needs at least 10 points")
    z = cloud.plane_values(window_radius)
    if z.shape[0] < 10:
        raise LimitSetError("circle fit needs at least 10 points in the window")
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
    if len(cloud) < 1000:
        raise LimitSetError("box counting needs at least 1000 points")
    z = cloud.plane_values(WINDOW_RADIUS)
    if z.shape[0] < 1000:
        raise LimitSetError("box counting needs at least 1000 points in the window")
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
        count = np.unique(ix << 32 | iy).size
        log_inv_delta.append(math.log(1.0 / delta))
        log_counts.append(math.log(count))
    slope = np.polyfit(log_inv_delta, log_counts, 1)[0]
    return float(slope)


def check_window(window) -> tuple[float, float, float, float]:
    """The window (re_min, re_max, im_min, im_max) as floats, once it is
    checked to be a finite nonempty rectangle."""
    bounds = tuple(float(v) for v in window)
    if len(bounds) != 4:
        raise LimitSetError("window needs re_min,re_max,im_min,im_max")
    if not all(math.isfinite(v) for v in bounds):
        raise LimitSetError("window bounds must be finite")
    re_min, re_max, im_min, im_max = bounds
    if not (re_min < re_max and im_min < im_max):
        raise LimitSetError("window must be a nonempty rectangle")
    return bounds


def render(
    cloud: LimitPointCloud,
    width: int = 800,
    height: int = 800,
    window: tuple[float, float, float, float] = (-2.2, 2.2, -2.2, 2.2),
) -> bytes:
    """Binary PPM (P6): white background, one black pixel per cloud point
    inside the window (re_min, re_max, im_min, im_max)."""
    if width < 1 or height < 1:
        raise LimitSetError("image dimensions must be positive")
    if width * height > MAX_PIXELS:
        raise LimitSetError(
            f"image of {width} x {height} pixels exceeds the budget of {MAX_PIXELS}"
        )
    re_min, re_max, im_min, im_max = check_window(window)
    img = np.full((height, width, 3), 255, dtype=np.uint8)
    z = cloud.plane_values(radius=math.inf) if len(cloud) else np.empty(0, complex)
    if z.size:
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
# key offsets of the four z-columns of a 2x2x2 block of cells; the two
# cells of a column have consecutive keys, so their points are one run of
# the sorted keys
_COLUMNS = np.array(
    [(dx << 42) | (dy << 21) for dx in (0, 1) for dy in (0, 1)], dtype=np.int64
)
# query-to-point distances computed at once: bounds the temporaries even
# where many points crowd a few cells
_PAIRS = 1 << 16
# most cells a query is compared with when no grid block settles it
_SUMMARY_CELLS = 4096
# relative slack on bounds built from computed cell indices and distances,
# far above their rounding errors
_SLACK = 2.0**-20


def _cell_keys(x: np.ndarray, side: float, shift: float) -> np.ndarray:
    cells = np.floor((x + 1.0) / side - shift).astype(np.int64) + 1
    return (cells[:, 0] << 42) | (cells[:, 1] << 21) | cells[:, 2]


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Indices where a sorted key array takes a new value."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(new)


class _Grid:
    """Points bucketed into cubic cells of the given side, sorted by key."""

    def __init__(self, points: np.ndarray, side: float):
        keys = _cell_keys(points, side, 0.0)
        order = np.argsort(keys, kind="stable")
        self.side = side
        self.keys = keys[order]
        self.coords = [points[order, i] for i in range(3)]
        # a block holds every point within side/2 of its query
        self.exact_sq = (0.5 * side * (1.0 - _SLACK)) ** 2

    def block_nearest_sq(self, queries: np.ndarray) -> np.ndarray:
        """Squared distance from each query to the nearest point in the
        2x2x2 block of cells centred on it (inf where the block is empty)."""
        base = _cell_keys(queries, self.side, 0.5)
        order = np.argsort(base, kind="stable")
        base = base[order]
        # queries sharing a block look it up once
        first = _run_starts(base)
        # one row of needles per column of the block, each row sorted
        needles = base[first] + _COLUMNS[:, None]
        run_start = np.searchsorted(self.keys, needles)
        run_end = np.searchsorted(self.keys, needles + 2)
        repeats = np.diff(np.r_[first, len(base)])
        best = np.empty(len(queries))
        best[order] = self.runs_nearest_sq(
            queries[order],
            run_start.T.repeat(repeats, axis=0),
            (run_end - run_start).T.repeat(repeats, axis=0),
        )
        return best

    def runs_nearest_sq(self, queries, starts, counts) -> np.ndarray:
        """Squared distance from query i to the nearest of the sorted points
        in the runs starts[i, j] + range(counts[i, j]) (inf if none).  The
        distance is summed dx*dx + dy*dy + dz*dz, left to right."""
        per_query = counts.sum(axis=1)
        ends = np.cumsum(per_query)
        best = np.full(len(queries), np.inf)
        i = 0
        while i < len(queries):
            done = ends[i - 1] if i else 0
            j = max(i + 1, int(np.searchsorted(ends, done + _PAIRS, "right")))
            c = counts[i:j].ravel()
            # point index of every (query, candidate) pair, grouped by query
            point = np.arange(c.sum()) + np.repeat(starts[i:j].ravel() - (np.cumsum(c) - c), c)
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
    sphere.

    A query is settled by the block around it on a grid of side h, else on
    a grid of side 4h, whenever the block holds a point within side/2.  The
    rest are compared with whole cells of a coarse grid, the finest of side
    h * 4^k with at most _SUMMARY_CELLS nonempty cells: a cell can hold the
    nearest point only if its first point is no farther than the nearest
    first point plus the cell's radius about its first point.  Grids are
    built on first use."""

    def __init__(self, points: np.ndarray, h: float):
        self.points = points
        self.h = h if h >= _MIN_CELL else _MIN_CELL
        self.grids: list[_Grid] = []
        self.summary = None

    def _grid(self, level: int) -> _Grid:
        while len(self.grids) <= level:
            self.grids.append(_Grid(self.points, self.h * 4.0 ** len(self.grids)))
        return self.grids[level]

    def _summary(self):
        """The coarse grid with each cell's first index, point count, first
        point (one row per cell) and radius about that point."""
        if self.summary is None:
            cells = self._grid(0).keys
            cells = cells[_run_starts(cells)]
            k = 0
            while len(cells) > _SUMMARY_CELLS:
                # a cell of side 4s is a block of 4x4x4 cells of side s
                x, y, z = ((((cells >> b) & 0x1FFFFF) - 1) // 4 + 1 for b in (42, 21, 0))
                cells = np.unique((x << 42) | (y << 21) | z)
                k += 1
            grid = _Grid(self.points, self.h * 4.0**k)
            first = _run_starts(grid.keys)
            counts = np.diff(np.r_[first, len(grid.keys)])
            reps = np.column_stack([c[first] for c in grid.coords])
            off = [c - r.repeat(counts) for c, r in zip(grid.coords, reps.T)]
            radius = np.sqrt(np.maximum.reduceat(sum(o * o for o in off), first))
            self.summary = (grid, first, counts, reps, radius)
        return self.summary

    def squared(self, queries: np.ndarray, level: int = 0) -> np.ndarray:
        """Squared distance from each query to its nearest point; start at
        level 1 for queries known to have no point within h/2."""
        best = np.empty(len(queries))
        todo = np.arange(len(queries))
        for level in range(level, 2):
            grid = self._grid(level)
            d2 = grid.block_nearest_sq(queries[todo])
            done = d2 <= grid.exact_sq
            best[todo[done]] = d2[done]
            todo = todo[~done]
        if todo.size:
            grid, first, counts, reps, radius = self._summary()
            step = max(1, _PAIRS // len(first))
            for s in range(0, todo.size, step):
                rows = todo[s:s + step]
                q = queries[rows]
                d = np.sqrt(sum((q[:, None, i] - reps[None, :, i]) ** 2 for i in range(3)))
                near = d <= (d.min(axis=1, keepdims=True) + radius) * (1.0 + _SLACK)
                best[rows] = grid.runs_nearest_sq(
                    q, np.broadcast_to(first, near.shape), np.where(near, counts, 0)
                )
        return best

    def max_squared(self, batches) -> float:
        """The largest squared nearest-point distance over the query arrays
        in `batches`.

        Queries with a point within h/2 are settled on the finest grid.  The
        others are gathered and grouped into cells, coarse to fine, and
        only each cell's first query is measured: the distance to the
        nearest point moves no faster than the query, so a cell whose first
        query's distance plus the cell's radius about it does not exceed
        the largest distance found cannot raise it, and its queries are
        dropped.  This keeps queries far from a dense cloud from each
        scanning it."""
        grid = self._grid(0)
        best = 0.0
        far: list[np.ndarray] = []
        for queries in batches:
            d2 = grid.block_nearest_sq(queries)
            near = d2 <= grid.exact_sq
            best = float(np.max(d2[near], initial=best))
            far.append(queries[~near])
            if sum(map(len, far)) >= _CHUNK:
                best = self._far_max_squared(np.concatenate(far), best)
                far = []
        if far:
            best = self._far_max_squared(np.concatenate(far), best)
        return best

    def _far_max_squared(self, far: np.ndarray, best: float) -> float:
        side = 1.0
        while far.size:
            if side < self.h:
                return max(best, float(self.squared(far, 1).max()))
            keys = _cell_keys(far, side, 0.0)
            order = np.argsort(keys, kind="stable")
            far, keys = far[order], keys[order]
            first = _run_starts(keys)
            cell = np.repeat(np.arange(len(first)), np.diff(np.r_[first, len(far)]))
            reps = far[first]
            r2 = self.squared(reps, 1)
            best = max(best, float(r2.max()))
            off = far - reps[cell]
            radius = np.maximum.reduceat(np.sqrt((off * off).sum(axis=1)), first)
            keep = ((np.sqrt(r2) + radius) * (1.0 + _SLACK) > math.sqrt(best))[cell]
            keep[first] = False
            far = far[keep]
            side /= 4.0
        return best


def cloud_group_invariance(cloud: LimitPointCloud, rep: Representation) -> float:
    """One-sided chordal distance from the generator-mapped cloud back to the
    cloud: small values witness invariance of the sampled set under the
    group.

    The nearest cloud point of every image is found exactly, by uniform
    grids on the sphere lift whose finest cells have side 2 * cloud.epsilon,
    so the value is the one a KD-tree query gives, to the last bit.
    Repeated points are searched once."""
    if len(cloud) == 0:
        raise LimitSetError("empty cloud")
    vals = cloud.values
    charts = cloud.charts
    # a sorted cloud holds repeats next to each other
    keep = np.ones(len(vals), dtype=bool)
    keep[1:] = (vals[1:] != vals[:-1]) | (charts[1:] != charts[:-1])
    vals = vals[keep]
    charts = charts[keep]
    nearest = _Nearest(_lift(vals, charts), 2.0 * cloud.epsilon)
    mats = rep.images + rep.inverses
    return math.sqrt(nearest.max_squared(_image_batches(mats, vals, charts)))


def _image_batches(mats, vals: np.ndarray, charts: np.ndarray):
    """Sphere lifts of the images of the points under each matrix, _CHUNK
    rows at a time."""
    u = np.where(charts == 0, vals, np.ones_like(vals))
    v = np.where(charts == 0, np.ones_like(vals), vals)
    for g in mats:
        a, b, c, d = g.entries()
        nu = a * u + b * v
        nv = c * u + d * v
        take0 = np.abs(nu) <= np.abs(nv)
        new_vals = np.empty_like(nu)
        # nv (resp. nu) is nonzero wherever take0 (resp. not): the images
        # are genuine sphere points
        new_vals[take0] = nu[take0] / nv[take0]
        new_vals[~take0] = nv[~take0] / nu[~take0]
        new_charts = np.where(take0, 0, 1).astype(np.int8)
        images = _lift(new_vals, new_charts)
        for s in range(0, len(images), _CHUNK):
            yield images[s:s + _CHUNK]


def format_cloud_csv(cloud: LimitPointCloud) -> str:
    re, im, charts = cloud.values.real, cloud.values.imag, cloud.charts
    parts = ["re,im,chart\n"]
    for s in range(0, len(cloud), _CHUNK):
        rows = zip(
            re[s : s + _CHUNK].tolist(),
            im[s : s + _CHUNK].tolist(),
            charts[s : s + _CHUNK].tolist(),
        )
        parts.append("".join(map("%.9g,%.9g,%d\n".__mod__, rows)))
    return "".join(parts)


def write_cloud_csv(path, cloud: LimitPointCloud) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_cloud_csv(cloud))
