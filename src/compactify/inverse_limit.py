"""Chains of compactifications and their inverse limit.

An ascending chain of models is bonded by comparison witnesses mapping
each level down to the previous one.  Points of the limit are threads:
one point per level, consecutive levels agreeing through the bonds.
Every bond is a verified onto map, so the limit of the finite chain is
its deepest level.  Lifts and residuals push (N,) coordinate rows through
the bonds; ``ProductPoint`` and ``Thread`` are only the types a point
enters as and a thread leaves as.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .compactification import CompactificationModel, closure_membership
from .ordering import ComparisonWitness, Incomparable, apply_witness, compare
from .product_space import BoxedCloud, ProductPoint, capped_distance, nearest_in_cloud

__all__ = [
    "InverseSystem",
    "Thread",
    "LiftError",
    "thread_residuals",
    "lift_point",
    "chain_limit",
    "limit_residuals",
]


class LiftError(RuntimeError):
    """No candidate at some level matched through the bond."""


@dataclass(frozen=True, eq=False)
class InverseSystem:
    """An ascending chain of models with verified downward bonds.

    ``bonds[n]`` maps level n+1 onto level n.
    """

    levels: tuple[CompactificationModel, ...]
    bonds: tuple[ComparisonWitness, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("an inverse system needs at least one level")
        if len(self.bonds) != len(self.levels) - 1:
            raise ValueError("need exactly one bond per consecutive level pair")

    @property
    def depth(self) -> int:
        return len(self.levels)

    @cached_property
    def pushed_candidates(self) -> tuple[BoxedCloud, ...]:
        """Per bond i, level i+1's image points, then its remainder centers,
        pushed down through the bond and boxed for :func:`nearest_in_cloud`;
        row k is the image of candidate k.  Computed for every bond on first
        use and kept with the system, which is treated as immutable."""
        return tuple(
            BoxedCloud.of(
                apply_witness(bond, np.vstack([upper.image_points, upper.remainder_centers]))
            )
            for upper, bond in zip(self.levels[1:], self.bonds)
        )

    @classmethod
    def from_levels(cls, levels: Sequence[CompactificationModel]) -> "InverseSystem":
        levels = tuple(levels)
        bonds = []
        for n in range(len(levels) - 1):
            w = compare(levels[n + 1], levels[n])
            if isinstance(w, Incomparable):
                raise ValueError(
                    f"level {n + 1} does not dominate level {n}: {w.reason}"
                )
            bonds.append(w)
        return cls(levels=levels, bonds=tuple(bonds))


@dataclass(frozen=True)
class Thread:
    """One candidate point of the limit: an entry per level."""

    entries: tuple[ProductPoint, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("thread needs at least one entry")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, n: int) -> ProductPoint:
        return self.entries[n]


def thread_residuals(system: InverseSystem, thread: Thread) -> list[float]:
    """Distances between each entry and the pushed-down next entry.

    A thread whose length is not the system's depth, or with an entry
    outside its level's space, raises ValueError.
    """
    if len(thread) != system.depth:
        raise ValueError("thread length does not match the system depth")
    for n, (entry, level) in enumerate(zip(thread.entries, system.levels)):
        if entry.space != level.space:
            raise ValueError(f"thread entry {n} does not live at level {n}")
    rows = [entry.as_array()[None] for entry in thread.entries]
    return [
        float(capped_distance(apply_witness(bond, rows[n + 1]), rows[n])[0])
        for n, bond in enumerate(system.bonds)
    ]


def _candidate(model: CompactificationModel, k: int) -> np.ndarray:
    """Lift candidate k of a level: an image point, or past the image
    points a remainder center."""
    images = model.image_points.shape[0]
    return model.image_points[k] if k < images else model.remainder[k - images].center


def lift_point(system: InverseSystem, n: int, p: ProductPoint) -> Thread:
    """Complete a single level-n point to a whole thread.

    Entry n is ``p`` itself, and entries below n are exact bond images.
    Entries above n are found by searching the next level's image cloud
    and remainder centers for the candidate whose bond image is nearest to
    the current entry, ties going to the lowest candidate index.  Rows are
    pushed and searched; the thread is built once, at the end.  A level
    where no candidate lands within that level's ``params.resolution``,
    twice its capture radius, raises :class:`LiftError` naming the level,
    which signals that the sampling there is too sparse.

    The level-n point must lie within the level-n model's resolution, as
    :func:`closure_membership` measures it; otherwise ValueError.
    The searches are exact and box-pruned.  Every bond's pushed candidates
    (the bond images of the upper level's image points and centers) are
    computed on the system's first lift and kept with their box ranges as
    ``system.pushed_candidates``, and each level's image cloud is boxed
    once per model.  Systems and models are treated as immutable.
    """
    if not (0 <= n < system.depth):
        raise IndexError(f"no level {n}")
    model = system.levels[n]
    if p.space != model.space:
        raise ValueError("point does not live at level n")
    tol = model.params.resolution
    near = closure_membership(model, p, tol).distance
    if near > tol:
        raise ValueError(
            f"point is {near:.3e} away from the level-{n} model, beyond {tol:.3e}"
        )

    rows: dict[int, np.ndarray] = {n: p.as_array()}
    for i in range(n, 0, -1):
        rows[i - 1] = apply_witness(system.bonds[i - 1], rows[i][None])[0]
    for i in range(n, system.depth - 1):
        model_up = system.levels[i + 1]
        tol = model_up.params.resolution
        best, dist = nearest_in_cloud(rows[i], system.pushed_candidates[i])
        if dist > tol:
            raise LiftError(
                f"no candidate at level {i + 1} lands within {tol:.3e} "
                f"of the level-{i} entry (closest: {dist:.3e}); "
                "the sampling at that level is too sparse"
            )
        rows[i + 1] = _candidate(model_up, best)
    return Thread(tuple(
        p if i == n else ProductPoint(rows[i], level.space) for i, level in enumerate(system.levels)
    ))


def chain_limit(system: InverseSystem) -> CompactificationModel:
    """Model of the limit: the deepest level.  The bonds are verified onto
    maps, so each thread is fixed by its deepest entry, and every point of
    the deepest level starts one."""
    return system.levels[-1]


def limit_residuals(system: InverseSystem) -> list[float | None]:
    """Per level, the residual of the limit model compared over it, or
    None where the two are incomparable."""
    limit = chain_limit(system)
    witnesses = (compare(limit, level) for level in system.levels)
    return [w.residual if isinstance(w, ComparisonWitness) else None for w in witnesses]
