"""Compactifications of the real line via coordinate embeddings.

Build finite models of the closure of x -> (f_0(x), f_1(x), ...) inside a
product of closed intervals, approximate the points the line gains at
infinity, test which bounded functions extend continuously, compare and
enlarge models, and chain them into inverse limits.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .functions import (
    AffineImage,
    Cheb,
    Const,
    Cos,
    FunctionDescriptor,
    FunctionFamily,
    Interval,
    StereoX,
    StereoY,
    Tanh,
    chebyshev_expand,
    descriptor_from_json,
)
from .product_space import (
    ProductPoint,
    check_ball_cylinder_inclusions,
    tail_bound,
)
from .compactification import (
    BuildParams,
    CompactificationModel,
    EmbeddingMap,
    RemainderCluster,
    build_compactification,
    closure_membership,
    load_model,
    save_model,
)
from .extension import (
    ExtensionReport,
    Verdict,
    check_extendability,
)
from .ordering import (
    ChebOfCoordinate,
    ComparisonWitness,
    EnlargeResult,
    Incomparable,
    compare,
    enlarge,
)
from .inverse_limit import (
    InverseSystem,
    Thread,
    chain_limit,
    lift_point,
)

__all__ = [
    "__version__",
    "AffineImage",
    "Cheb",
    "Const",
    "Cos",
    "FunctionDescriptor",
    "FunctionFamily",
    "Interval",
    "StereoX",
    "StereoY",
    "Tanh",
    "chebyshev_expand",
    "descriptor_from_json",
    "ProductPoint",
    "check_ball_cylinder_inclusions",
    "tail_bound",
    "BuildParams",
    "CompactificationModel",
    "EmbeddingMap",
    "RemainderCluster",
    "build_compactification",
    "closure_membership",
    "load_model",
    "save_model",
    "ExtensionReport",
    "Verdict",
    "check_extendability",
    "ChebOfCoordinate",
    "ComparisonWitness",
    "EnlargeResult",
    "Incomparable",
    "compare",
    "enlarge",
    "InverseSystem",
    "Thread",
    "chain_limit",
    "lift_point",
]
