"""Chains of compactifications and their inverse limit.

An ascending chain of models is bonded by comparison witnesses mapping
each level down to the previous one.  Points of the limit are threads:
one point per level, consecutive levels agreeing through the bonds.
Every bond is a verified onto map, so the limit of the finite chain is
its deepest level.
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
    "apply_bond",
    "thread_residuals",
    "make_thread_from_parameter",
    "lift_point",
    "chain_limit",
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


def apply_bond(system: InverseSystem, n: int, p: ProductPoint) -> ProductPoint:
    """Push a level-(n+1) point down to level n through the bond."""
    if not (0 <= n < system.depth - 1):
        raise IndexError(f"no bond at index {n}")
    if p.space != system.levels[n + 1].space:
        raise ValueError("point does not live at the bond's source level")
    row = apply_witness(system.bonds[n], p.as_array()[None])[0]
    return ProductPoint(row, system.levels[n].space)


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
    return [
        float(capped_distance(apply_bond(system, n, thread[n + 1]).as_array(), thread[n].as_array()))
        for n in range(system.depth - 1)
    ]


def make_thread_from_parameter(system: InverseSystem, x: float) -> Thread:
    """The thread of embeddings of one real parameter at every level."""
    return Thread(tuple(level.embed(x) for level in system.levels))


def _candidate(model: CompactificationModel, k: int) -> np.ndarray:
    """Lift candidate k of a level: an image point, or past the image
    points a remainder center."""
    images = model.image_points.shape[0]
    return model.image_points[k] if k < images else model.remainder[k - images].center


def lift_point(system: InverseSystem, n: int, p: ProductPoint) -> Thread:
    """Complete a single level-n point to a whole thread.

    Entries below n are exact bond images.  Entries above n are found by
    searching the next level's image cloud and remainder centers for the
    candidate whose bond image is nearest to the current entry, ties going
    to the lowest candidate index.  A level where no candidate lands
    within that level's ``params.resolution``, twice its capture radius,
    raises :class:`LiftError` naming the level, which signals that the
    sampling there is too sparse.

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

    entries: dict[int, ProductPoint] = {n: p}
    for i in range(n, 0, -1):
        entries[i - 1] = apply_bond(system, i - 1, entries[i])
    for i in range(n, system.depth - 1):
        model_up = system.levels[i + 1]
        tol = model_up.params.resolution
        best, dist = nearest_in_cloud(entries[i].as_array(), system.pushed_candidates[i])
        if dist > tol:
            raise LiftError(
                f"no candidate at level {i + 1} lands within {tol:.3e} "
                f"of the level-{i} entry (closest: {dist:.3e}); "
                "the sampling at that level is too sparse"
            )
        entries[i + 1] = ProductPoint(_candidate(model_up, best), model_up.space)
    return Thread(tuple(entries[i] for i in range(system.depth)))


def chain_limit(system: InverseSystem) -> CompactificationModel:
    """Model of the limit: the deepest level.  The bonds are verified onto
    maps, so each thread is fixed by its deepest entry, and every point of
    the deepest level starts one."""
    return system.levels[-1]
