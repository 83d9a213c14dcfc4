"""Hypothesis strategies for descriptor JSON, well-formed or not."""
from __future__ import annotations

from hypothesis import strategies as st

from compactify.functions import MAX_CHEB_DEGREE

# Values a JSON field can hold that are not a small number: integers reach
# past the float range, floats include the non-finite ones.
JUNK_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "kind"]), st.integers(0, 2), max_size=1),
)
JUNK = st.one_of(JUNK_VALUES, st.sampled_from([MAX_CHEB_DEGREE, MAX_CHEB_DEGREE + 1]))
NUMBERS = st.one_of(st.floats(-4.0, 4.0), st.integers(-1, 8))

# Each kind's JSON fields, spelled out here as the oracle.
FIELDS = {
    "tanh": ("a", "b"),
    "cos": ("a", "b"),
    "stereo_x": (),
    "stereo_y": (),
    "const": ("c",),
    "cheb": ("n", "inner"),
    "affine": ("inner", "scale", "shift"),
    "sine": ("a",),
}
ALL_FIELDS = ("a", "b", "c", "n", "inner", "scale", "shift", "x")
NO_KIND = object()


@st.composite
def descriptor_json(draw, numbers, junk, depth: int):
    """A descriptor object, mostly well-formed.  Its kind is mostly a known
    one; each field of that kind is present half the time and any other
    field an eighth of the time.  A value is mostly one of ``numbers``, or
    for ``inner`` an object nested at most ``depth`` more levels, and
    otherwise one of ``junk``."""
    if draw(st.integers(0, 15)) == 0:
        return draw(junk)
    kind = draw(st.sampled_from([*FIELDS, *FIELDS, NO_KIND, "junk"]))
    obj = {} if kind is NO_KIND else {"kind": draw(junk) if kind == "junk" else kind}
    own = FIELDS.get(kind, ())
    for name in ALL_FIELDS:
        if draw(st.integers(0, 7)) >= (4 if name in own else 1):
            continue
        pick = draw(st.integers(0, 7))
        if pick == 0:
            obj[name] = draw(junk)
        elif (name == "inner" or pick == 1) and depth > 0:
            obj[name] = draw(descriptor_json(numbers, junk, depth - 1))
        else:
            obj[name] = draw(numbers)
    return obj


def nest(obj, depth: int):
    """``obj`` inside ``depth - 1`` affine wrappers."""
    for _ in range(depth - 1):
        obj = {"kind": "affine", "inner": obj}
    return obj
