"""Countable products of closed intervals and their metric.

Coordinates are weighted by 2^-n and capped at 1, so the distance between
any two points of the product is at most 2 and the topology agrees with the
product topology on every finite truncation.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .functions import Interval

__all__ = [
    "Interval",
    "ProductPoint",
    "capped_distance",
    "distances_to_cloud",
    "rowwise_distance",
    "BOX_ROWS",
    "box_lower_bound",
    "BoxedCloud",
    "nearest_in_cloud",
    "tail_bound",
    "InclusionReport",
    "check_ball_cylinder_inclusions",
    "write_point_cloud_csv",
]

Space = tuple[Interval, ...]


@dataclass(frozen=True)
class ProductPoint:
    """A point of a finite product of closed intervals.

    Containment of each coordinate in its interval is exact, with no
    tolerance; values produced by descriptor evaluation satisfy this by
    construction.
    """

    coords: tuple[float, ...]
    space: Space

    def __post_init__(self) -> None:
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if not isinstance(self.space, tuple):
            object.__setattr__(self, "space", tuple(self.space))
        if len(self.coords) != len(self.space):
            raise ValueError(
                f"point has {len(self.coords)} coordinates for a "
                f"{len(self.space)}-interval space"
            )
        for n, (c, iv) in enumerate(zip(self.coords, self.space)):
            if not iv.contains(c):
                raise ValueError(
                    f"coordinate {n} = {c!r} outside [{iv.lo}, {iv.hi}]"
                )

    def __len__(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=np.float64)


def capped_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Weighted capped distance sum_n min{1, |a_n - b_n|} / 2^n.

    The sum runs over the last axis; the leading axes broadcast, so one
    call covers a row against a cloud, row against row, or a whole
    (k, 1, N) x (1, s, N) block.  Terms are accumulated one coordinate at
    a time in fixed order, so results are reproducible bit for bit.

    Each term is built in one buffer of the result's shape: subtract,
    absolute value, cap, weight, each written over the last, then added
    to the sum.  These are the element-wise operations, in order, of
    ``acc += np.minimum(1.0, np.abs(a_n - b_n)) * w``, and an operation
    written into a buffer rounds exactly as one that returns a fresh
    array, so the sum is that expression's bit for bit, with two arrays
    of the result's size alive instead of three.  The buffer is an array
    even for 1-D inputs, whose distance is then a 0-d array: ``out=``
    cannot write into a numpy scalar.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    acc = np.zeros(shape)
    term = np.empty(shape)
    w = 1.0
    for n in range(a.shape[-1]):
        np.subtract(a[..., n], b[..., n], out=term)
        np.abs(term, out=term)
        np.minimum(term, 1.0, out=term)
        term *= w
        acc += term
        w *= 0.5
    return acc


def distances_to_cloud(p: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Distances from a single coordinate row to every row of an (M, N) cloud."""
    p = np.asarray(p, dtype=np.float64)
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.ndim != 2 or cloud.shape[1] != p.shape[0]:
        raise ValueError("cloud is not (M, N) for a point of N coordinates")
    return capped_distance(cloud, p)


def rowwise_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between corresponding rows of two (M, N) clouds."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError("clouds are not two (M, N) arrays of one shape")
    return capped_distance(a, b)


# Box-pruned searches bound the distance to every box of this many
# consecutive cloud rows at once.
BOX_ROWS = 32


def box_lower_bound(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Lower bound on the computed distance from p to any row of a box.

    ``lo`` and ``hi`` are the box's per-coordinate range; the arguments
    broadcast like :func:`capped_distance`'s.  Clipping p into the range
    gives the point c of the range nearest to p, and the distance from p
    to c is computed by the same kernel, coordinate by coordinate in the
    same order.  For any row x of the box each computed |c_n - p_n| is at
    most |x_n - p_n|, because float subtraction is monotone; so are
    min{1, .}, the power-of-two weights and addition.  The bound therefore
    never exceeds the computed distance from p to any row of the box, and
    a box whose bound exceeds a radius holds no row within it.

    c is clipped as min(max(lo, p), hi), in one array, rather than by
    ``np.clip``.  Both pick one of the three values, so they can differ
    only in the sign of a zero c_n, where lo_n, p_n or hi_n are zeros of
    both signs.  |c_n - p_n| does not see that sign: c_n - p_n is -p_n
    exactly for nonzero p_n, and a zero whose absolute value is +0 when
    p_n is zero.  So the bound equals ``capped_distance(np.clip(p, lo,
    hi), p)`` bit for bit.
    """
    c = np.maximum(lo, p)
    np.minimum(c, hi, out=c)
    return capped_distance(c, p)


@dataclass(frozen=True, eq=False)
class BoxedCloud:
    """A cloud with the coordinate range of each box of ``BOX_ROWS``
    consecutive rows; ``lo[b]`` and ``hi[b]`` cover rows
    ``b * BOX_ROWS`` up to the next box."""

    cloud: np.ndarray  # (M, N)
    lo: np.ndarray  # (boxes, N)
    hi: np.ndarray  # (boxes, N)

    @classmethod
    def of(cls, cloud: np.ndarray) -> "BoxedCloud":
        cloud = np.asarray(cloud, dtype=np.float64)
        if cloud.ndim != 2 or cloud.shape[0] == 0:
            raise ValueError(f"cannot search a cloud of shape {cloud.shape}")
        starts = np.arange(0, cloud.shape[0], BOX_ROWS)
        return cls(
            cloud=cloud,
            lo=np.minimum.reduceat(cloud, starts, axis=0),
            hi=np.maximum.reduceat(cloud, starts, axis=0),
        )


def nearest_in_cloud(p: np.ndarray, boxed: BoxedCloud) -> tuple[int, float]:
    """Index of the cloud row nearest to p, ties to the earliest row, and
    its distance: exactly ``argmin`` and ``min`` of
    ``distances_to_cloud(p, boxed.cloud)``, without scanning every row.

    The rows of the earliest box with the least :func:`box_lower_bound`
    are scanned first; their nearest distance u bounds the answer.  A row
    can only beat that row by being nearer, or as near and earlier, so
    only the boxes whose bound is below u, or at most u up to that box,
    can hold the answer.  Their rows are scanned in ascending order, so
    argmin keeps the earliest-row tie-break.
    """
    p = np.asarray(p, dtype=np.float64)
    bound = box_lower_bound(p, boxed.lo, boxed.hi)
    a = int(np.argmin(bound))
    u = capped_distance(boxed.cloud[a * BOX_ROWS : (a + 1) * BOX_ROWS], p).min()
    keep = bound < u
    keep[: a + 1] |= bound[: a + 1] <= u
    rows = (np.flatnonzero(keep)[:, None] * BOX_ROWS + np.arange(BOX_ROWS)).ravel()
    rows = rows[: rows.searchsorted(boxed.cloud.shape[0])]  # the last box may be short
    dists = capped_distance(np.take(boxed.cloud, rows, axis=0), p)
    best = int(np.argmin(dists))
    return int(rows[best]), float(dists[best])


def tail_bound(n_coords: int) -> float:
    """Total weight 2^(1-N) of the coordinates dropped after the first N.

    Truncating the metric to N coordinates changes no distance by more than
    this amount.
    """
    if n_coords < 1:
        raise ValueError("need at least one retained coordinate")
    return 2.0 ** (1 - n_coords)


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of the ball/cylinder inclusion checks on a sample.

    ``coordinate_violations`` counts the (pair, coordinate n) where
    d(x_i, x_j) < r / 2^n failed to force coordinate distance n below r;
    ``cylinder_violations`` counts the pairs where closeness below r/4 on
    every coordinate up to k failed to force d(x_i, x_j) < r.
    """

    r: float
    k: int
    pairs_checked: int
    coordinate_violations: int
    cylinder_violations: int

    @property
    def ok(self) -> bool:
        return self.coordinate_violations == 0 and self.cylinder_violations == 0


def _truncation_depth(r: float) -> int:
    # Smallest k with 2^(1-k) < r/2: beyond coordinate k the whole tail
    # weighs less than half of r.  Compared with r rather than r/2, which
    # rounds the least subnormal radius to 0.0 and would never stop the loop.
    k = 1
    while 2.0 ** (2 - k) >= r:
        k += 1
    return k


def check_ball_cylinder_inclusions(points: np.ndarray, r: float) -> InclusionReport:
    """Check both metric-ball vs cylinder inclusions on all pairs of rows
    of an (M, N) sample.

    For every unordered pair of rows x, y and every coordinate n: whenever
    d(x, y) < r / 2^n the n-th capped coordinate distance is below r.  And
    with k the smallest truncation depth whose tail weighs less than r/2:
    whenever all capped coordinate distances up to k are below r/4,
    d(x, y) < r.  A radius that is not positive, or a sample that is not
    2-D, raises ValueError.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"sample of shape {pts.shape} is not (M, N)")
    dim = pts.shape[1]
    ii, jj = np.triu_indices(pts.shape[0], k=1)
    capped = np.minimum(1.0, np.abs(pts[ii] - pts[jj]))  # (pairs, dim)
    dist = capped_distance(pts[ii], pts[jj])

    k = _truncation_depth(r)
    coord_viol = sum(
        int(np.count_nonzero((dist < math.ldexp(r, -n)) & ~(capped[:, n] < r))) for n in range(dim)
    )
    head = capped[:, : min(k, dim - 1) + 1]
    hypothesis = np.all(head < r / 4.0, axis=1)
    return InclusionReport(
        r=float(r),
        k=k,
        pairs_checked=len(ii),
        coordinate_violations=coord_viol,
        cylinder_violations=int(np.count_nonzero(hypothesis & ~(dist < r))),
    )


def write_point_cloud_csv(path, points: np.ndarray) -> None:
    """Write (M, N) points, one row each, under a c0..c{N-1} header, with
    17-significant-digit coordinates."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{n}" for n in range(points.shape[1])])
        for row in points:
            writer.writerow([f"{v:.17g}" for v in row])

