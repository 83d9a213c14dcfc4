"""Bounded coordinate functions on the real line.

Every compactification in this package is driven by a finite ordered family
of bounded continuous functions.  Each function is held as a small symbolic
descriptor rather than a bare callable so that ranges can be computed
exactly, families can be compared syntactically, and everything survives a
round trip through JSON.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, Iterable, Iterator

import numpy as np

__all__ = [
    "MAX_CHEB_DEGREE",
    "MAX_DESCRIPTOR_DEPTH",
    "Interval",
    "FunctionDescriptor",
    "Tanh",
    "Cos",
    "StereoX",
    "StereoY",
    "Cheb",
    "Const",
    "AffineImage",
    "FunctionFamily",
    "chebyshev_expand",
    "chebyshev_recurrence",
    "descriptor_from_json",
]


# Largest Chebyshev degree a descriptor may carry.  Evaluating T_n costs
# O(n) per point: at this bound one pass over the 390 002 tail samples of
# the default window takes about a second.
MAX_CHEB_DEGREE = 1000

# Cos and Cheb(n, Cos) estimate a block of points only where its phases
# n (a x + b) are bounded by this; see _cos_estimate for why.
_ESTIMATE_MAX_PHASE = 1e6
# The error bound an estimate states, with a wide margin over the derived one.
_ESTIMATE_ERROR = 1e-5
_TWO_PI = 2.0 * math.pi

# Most descriptors one JSON descriptor may nest, itself included.
# Evaluation, ranges and JSON output recurse once per level; at this depth
# they stay far below Python's default recursion limit of 1000.
MAX_DESCRIPTOR_DEPTH = 64


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def chebyshev_recurrence(n: int, t: np.ndarray | float) -> np.ndarray | float:
    """Chebyshev polynomial T_n(t) via the three-term recurrence.

    T_0 = 1, T_1 = t, T_{k+1} = 2 t T_k - T_{k-1}.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    arr = np.asarray(t, dtype=np.float64)
    if n == 0:
        out = np.ones_like(arr)
    elif n == 1:
        out = arr
    else:
        prev = np.ones_like(arr)
        cur = arr
        for _ in range(n - 1):
            prev, cur = cur, 2.0 * arr * cur - prev
        out = cur
    if np.ndim(t) == 0 and not isinstance(t, np.ndarray):
        return float(out)
    return out


# A float field's annotation, as a string (as here) or as the type.
_FLOAT = ("float", float)


class FunctionDescriptor:
    """Base class for symbolic descriptors of bounded functions on R.

    Each subclass is a frozen dataclass whose fields are its JSON schema:
    ``to_json`` writes ``kind`` and then every field in declaration order,
    and ``descriptor_from_json`` reads them back, a field with a default
    being optional and any other field refused.  Every ``float`` field
    must be a finite JSON number.
    """

    kind: ClassVar[str]

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in _FLOAT and not np.isfinite(value):
                raise ValueError(f"{type(self).__name__}.{f.name} must be finite, got {value!r}")

    def evaluate(self, x):
        """Evaluate at a float or an ndarray of floats.

        The result is clipped into ``range_interval()`` so that containment
        holds exactly even where the underlying recurrences drift by an ulp.
        """
        arr = np.asarray(x, dtype=np.float64)
        iv = self.range_interval()
        raw = self._raw(arr)
        # _raw returns a new array, so an array result is clipped in place.
        out = np.clip(raw, iv.lo, iv.hi, out=raw if np.ndim(raw) else None)
        if arr.ndim == 0 and not isinstance(x, np.ndarray):
            return float(out)
        return out

    def _raw(self, arr: np.ndarray) -> np.ndarray:
        """The unclipped values at ``arr``, in a new array or a scalar."""
        raise NotImplementedError

    def _estimate(self, xs: np.ndarray) -> tuple[np.ndarray, float] | None:
        """Cheap float32 estimates of ``evaluate(xs)`` on a 1-D float64
        array and a bound E with |estimate - evaluate(x)| <= E at every
        point, or None where this descriptor offers none."""
        return None

    def range_interval(self) -> Interval:
        """Closed hull of the image of R under this function."""
        raise NotImplementedError

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_json() if isinstance(value, FunctionDescriptor) else value
        return out


@dataclass(frozen=True)
class Tanh(FunctionDescriptor):
    """x -> tanh(a x + b)."""

    kind = "tanh"
    a: float = 1.0
    b: float = 0.0

    def _raw(self, arr):
        # a x + b, then tanh, in one new array.  A phase that overflows to
        # +-inf has tanh exactly +-1, so the overflow is harmless.
        with np.errstate(over="ignore"):
            phase = np.multiply(self.a, arr, out=np.empty_like(arr))
            phase += self.b
        return np.tanh(phase, out=phase)

    def range_interval(self) -> Interval:
        if self.a == 0.0:
            v = float(np.tanh(self.b))
            return Interval(v, v)
        return Interval(-1.0, 1.0)


@dataclass(frozen=True)
class Cos(FunctionDescriptor):
    """x -> cos(a x + b)."""

    kind = "cos"
    a: float = 1.0
    b: float = 0.0

    def _raw(self, arr):
        # Every step after a x works in place on one new array.  A phase
        # that overflows is collapsed below, so the overflow is harmless.
        with np.errstate(over="ignore"):
            phase = np.multiply(self.a, arr, out=np.empty_like(arr))
            phase += self.b
        # cos(|p|) = cos(p); taking |p| first makes the evenness of cos hold
        # bitwise, so Cos(-n, 0) and Cos(n, 0) agree exactly.
        np.abs(phase, out=phase)
        # A finite x with |a x + b| overflowing float64 has no representable
        # phase; collapse to cos(0) to keep the value finite.
        np.copyto(phase, 0.0, where=~np.isfinite(phase))
        return np.cos(phase, out=phase)

    def _estimate(self, xs):
        return _cos_estimate(self.a, self.b, 1, xs)

    def range_interval(self) -> Interval:
        if self.a == 0.0:
            v = float(np.cos(self.b))
            return Interval(v, v)
        return Interval(-1.0, 1.0)


@dataclass(frozen=True)
class StereoX(FunctionDescriptor):
    """x -> 2x / (1 + x^2), the first circle-embedding coordinate."""

    kind = "stereo_x"

    def _raw(self, arr):
        ax = np.abs(arr)
        small = ax <= 1.0
        # Rewritten as (2/x) / (1 + 1/x^2) for |x| > 1 so that x^2 never
        # overflows; both branches give exactly +-1 at x = +-1.
        xs = np.where(small, arr, 1.0)
        xl = np.where(small, 1.0, arr)
        inv = 1.0 / xl
        return np.where(small, 2.0 * xs / (1.0 + xs * xs), 2.0 * inv / (1.0 + inv * inv))

    def range_interval(self) -> Interval:
        return Interval(-1.0, 1.0)


@dataclass(frozen=True)
class StereoY(FunctionDescriptor):
    """x -> (x^2 - 1) / (1 + x^2), the second circle-embedding coordinate."""

    kind = "stereo_y"

    def _raw(self, arr):
        # 1 - 2/(1 + x^2) is the same rational function without the
        # overflowing numerator; it tends to 1 cleanly as |x| grows.
        return 1.0 - 2.0 / (1.0 + arr * arr)

    def range_interval(self) -> Interval:
        return Interval(-1.0, 1.0)


@dataclass(frozen=True)
class Const(FunctionDescriptor):
    """Constant function x -> c."""

    kind = "const"
    c: float

    def _raw(self, arr):
        return np.full(arr.shape, float(self.c))

    def range_interval(self) -> Interval:
        return Interval(self.c, self.c)


@dataclass(frozen=True)
class Cheb(FunctionDescriptor):
    """x -> T_n(inner(x)) with T_n the degree-n Chebyshev polynomial."""

    kind = "cheb"
    n: int
    inner: FunctionDescriptor

    def __post_init__(self) -> None:
        n = self.n
        if isinstance(n, bool) or not isinstance(n, numbers.Real):
            raise ValueError(f"Chebyshev degree must be an integer, got {n!r}")
        if not isinstance(n, numbers.Integral) and not (math.isfinite(n) and n == math.floor(n)):
            raise ValueError(f"Chebyshev degree must be a finite integer, got {n!r}")
        if n < 1:
            raise ValueError("Chebyshev wrapper needs degree n >= 1")
        if n > MAX_CHEB_DEGREE:
            raise ValueError(f"Chebyshev degree {n!r} exceeds MAX_CHEB_DEGREE = {MAX_CHEB_DEGREE}")
        if not isinstance(self.inner, FunctionDescriptor):
            raise TypeError(f"not a function descriptor: {self.inner!r}")
        object.__setattr__(self, "n", int(n))
        # An O(n) loop, and every evaluate clips to it: computed once, as
        # descriptors are immutable.
        object.__setattr__(self, "_range", self._range_from_inner())

    def _raw(self, arr):
        return chebyshev_recurrence(self.n, np.asarray(self.inner.evaluate(arr)))

    def _estimate(self, xs):
        # T_n(cos t) = cos(n t)
        if isinstance(self.inner, Cos):
            return _cos_estimate(self.inner.a, self.inner.b, self.n, xs)
        return None

    def range_interval(self) -> Interval:
        return self._range

    def _range_from_inner(self) -> Interval:
        inner_iv = self.inner.range_interval()
        lo, hi = inner_iv.lo, inner_iv.hi
        with np.errstate(over="ignore", invalid="ignore"):
            candidates = [float(chebyshev_recurrence(self.n, t)) for t in (lo, hi)]
        if not all(map(math.isfinite, candidates)):
            raise ValueError(f"Chebyshev degree {self.n} overflows on the inner range [{lo}, {hi}]")
        # T_n'(t) = n U_{n-1}(t) vanishes exactly at cos(k pi / n), where
        # T_n alternates between +-1; those are the only interior extrema.
        for k in range(1, self.n):
            crit = float(np.cos(k * np.pi / self.n))
            if lo <= crit <= hi:
                candidates.append(1.0 if k % 2 == 0 else -1.0)
        return Interval(min(candidates), max(candidates))


@dataclass(frozen=True)
class AffineImage(FunctionDescriptor):
    """x -> scale * inner(x) + shift."""

    kind = "affine"
    inner: FunctionDescriptor
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        iv = self.range_interval()
        if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)):
            raise ValueError(f"AffineImage range [{iv.lo}, {iv.hi}] is not finite")
        # An extend-check's oscillation is a difference of two values.
        if not math.isfinite(iv.width):
            raise ValueError(f"AffineImage range [{iv.lo}, {iv.hi}] is wider than the largest float")

    def _raw(self, arr):
        return self.scale * np.asarray(self.inner.evaluate(arr)) + self.shift

    def range_interval(self) -> Interval:
        iv = self.inner.range_interval()
        a = self.scale * iv.lo + self.shift
        b = self.scale * iv.hi + self.shift
        return Interval(min(a, b), max(a, b))


def _cos_estimate(a: float, b: float, n: int, xs: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Float32 estimates of cos(n (a x + b)), the values of ``Cos(a, b)``
    for n = 1 and of ``Cheb(n, Cos(a, b))`` otherwise, since T_n(cos t) =
    cos(n t), with their bound ``_ESTIMATE_ERROR``; None when the phase
    bound n (|a| max |x| + |b|) is not finite or exceeds
    ``_ESTIMATE_MAX_PHASE``.

    The phase is taken in turns, t = x (n a / 2 pi) + n b / 2 pi, in
    float64; its nearest integer is subtracted, and numpy's vectorised
    float32 cos is applied to 2 pi t, a float64 in [-pi, pi] cast to
    float32.  Within the phase bound, 1.6e5 turns, the estimate is
    within 4e-7 of the value ``evaluate`` returns:

    - the float64 turns: the two coefficients are each within three
      roundings of their values, and the product and the sum round once
      each, so t is off by at most 2e-10 turns, 1.3e-9; subtracting an
      integer near t is exact, and so, up to 1e-15, is the product by
      2 pi;
    - the float32 cast of 2 pi t, |2 pi t| < 4: at most 2^-23, 1.2e-7;
    - numpy's float32 cos: under 2 float32 ulps of 1, 2.4e-7;
    - the exact path's rounding: float64 cos is within an ulp, 1.1e-16,
      and T_n's recurrence amplifies an error in its argument and its
      own roundings by at most about n^2 (|T_n'| <= n^2 on [-1, 1]):
      below 1e6 * 4.4e-16 < 1e-9 for n <= MAX_CHEB_DEGREE.  Its clip
      into the descriptor's range moves no value away from cos(n p).

    The stated bound, 1e-5, is more than twenty times that sum.
    """
    slope, shift = n * a / _TWO_PI, n * b / _TWO_PI
    reach = max(float(xs.max(initial=0.0)), -float(xs.min(initial=0.0)))
    if not abs(slope) * reach + abs(shift) <= _ESTIMATE_MAX_PHASE / _TWO_PI:  # NaN fails too
        return None
    turns = np.multiply(xs, slope, out=np.empty_like(xs))
    turns += shift
    turns -= np.rint(turns)
    turns *= _TWO_PI
    return np.cos(turns, dtype=np.float32), _ESTIMATE_ERROR


def chebyshev_expand(n: int) -> Cheb:
    """Descriptor for cos(n x) written as T_n composed with cos(x).

    Rejects n = 0: the degenerate case collapses to the constant 1 and
    carries no frequency information.
    """
    if n < 1:
        raise ValueError("chebyshev_expand requires n >= 1")
    return Cheb(n, Cos(1.0, 0.0))


def _injective_lead(descriptors: tuple[FunctionDescriptor, ...]) -> bool:
    """Whether coordinate 0 (with coordinate 1, for the circle pair) is
    injective on R.  Only structurally recognizable cases are admitted."""
    f = descriptors[0]
    while isinstance(f, AffineImage) and f.scale != 0.0:
        f = f.inner
    if isinstance(f, Tanh) and f.a != 0.0:
        return True
    if isinstance(f, StereoX):
        return len(descriptors) > 1 and isinstance(descriptors[1], StereoY)
    return False


@dataclass(frozen=True)
class FunctionFamily:
    """Finite ordered family of descriptors defining a coordinate embedding.

    The leading coordinate must separate points of R, otherwise the induced
    map into the product is not an embedding.  That is enforced
    structurally: a nondegenerate Tanh (possibly inside strictly monotone
    affine wrappers), or the StereoX/StereoY pair at coordinates 0 and 1.
    """

    descriptors: tuple[FunctionDescriptor, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.descriptors, tuple):
            object.__setattr__(self, "descriptors", tuple(self.descriptors))
        if len(self.descriptors) == 0:
            raise ValueError("family must contain at least one function")
        for f in self.descriptors:
            if not isinstance(f, FunctionDescriptor):
                raise TypeError(f"not a function descriptor: {f!r}")
        if not _injective_lead(self.descriptors):
            raise ValueError(
                "coordinate 0 must be injective on R: use Tanh with a != 0, "
                "a strictly monotone affine image of it, or the "
                "StereoX/StereoY pair at coordinates 0 and 1"
            )

    def __len__(self) -> int:
        return len(self.descriptors)

    def __iter__(self) -> Iterator[FunctionDescriptor]:
        return iter(self.descriptors)

    def __getitem__(self, i: int) -> FunctionDescriptor:
        return self.descriptors[i]

    def space(self) -> tuple[Interval, ...]:
        """Ranges of the member functions, in coordinate order."""
        return tuple(f.range_interval() for f in self.descriptors)

    def to_json(self) -> list[dict]:
        return [f.to_json() for f in self.descriptors]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "FunctionFamily":
        return cls(tuple(descriptor_from_json(obj) for obj in data))

    @classmethod
    def from_file(cls, path) -> "FunctionFamily":
        with open(path, "r", encoding="utf-8") as fh:
            data = decode_json(fh.read())
        if not isinstance(data, list):
            raise ValueError("family file must hold a JSON array of descriptors")
        return cls.from_json(data)


def decode_json(text: str):
    """``json.loads``, with JSON nested too deeply to decode a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def json_float(value, what: str) -> float:
    """``float(value)`` of a JSON number, an int or a float; a bool, a
    string or any other value, or an int that overflows a float, is a
    ValueError naming ``what``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


_KINDS = {cls.kind: cls for cls in (Tanh, Cos, StereoX, StereoY, Const, Cheb, AffineImage)}


def descriptor_from_json(obj: dict, depth: int = 1) -> FunctionDescriptor:
    """Parse one descriptor from its JSON object form.

    ``depth`` counts the descriptors around ``obj``, itself included; past
    ``MAX_DESCRIPTOR_DEPTH`` the descriptor is refused.
    """
    if depth > MAX_DESCRIPTOR_DEPTH:
        raise ValueError(f"descriptor nesting exceeds MAX_DESCRIPTOR_DEPTH = {MAX_DESCRIPTOR_DEPTH}")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"not a descriptor object: {obj!r}")
    kind = obj["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown descriptor kind: {kind!r}")
    names = [f.name for f in fields(cls)]
    unknown = [k for k in obj if k != "kind" and k not in names]
    if unknown:
        raise ValueError(f"{kind} descriptor has unknown fields {unknown}")
    args = {}
    for f in fields(cls):
        if f.name not in obj:
            if f.default is MISSING:
                raise ValueError(f"{kind} descriptor needs {f.name!r}: {obj!r}")
            continue
        value = obj[f.name]
        if f.type in ("FunctionDescriptor", FunctionDescriptor):
            value = descriptor_from_json(value, depth + 1)
        elif f.type in _FLOAT:
            value = json_float(value, f"{cls.__name__}.{f.name}")
        args[f.name] = value
    return cls(**args)
