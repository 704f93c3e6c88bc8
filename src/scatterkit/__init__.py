"""Dense-tensor scatter engine with explicit collision policies and a
sliceability analyzer that lowers suitable scatters to contiguous block
copies."""

from .analysis import (
    SLICEABLE,
    TRIVIAL_ONLY,
    WEAKLY_SLICEABLE_ONLY,
    CollisionReport,
    SliceabilityReport,
    detect_collisions,
    slicing_impossibility,
)
from .engine import (
    CollisionPolicy,
    ScatterReport,
    scatter_nd_update,
    scatter_x,
    torch_scatter,
)
from .errors import (
    ArgumentError,
    CollisionError,
    FormatError,
    PickRangeError,
    ValidationError,
)
from .transform import (
    ProvisionTensor,
    XTransformerSpec,
    compose_provision,
    tf_transformer,
    validate_provision,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CollisionError",
    "CollisionPolicy",
    "CollisionReport",
    "FormatError",
    "PickRangeError",
    "ProvisionTensor",
    "SLICEABLE",
    "ScatterReport",
    "SliceabilityReport",
    "TRIVIAL_ONLY",
    "ValidationError",
    "WEAKLY_SLICEABLE_ONLY",
    "XTransformerSpec",
    "compose_provision",
    "detect_collisions",
    "scatter_nd_update",
    "scatter_x",
    "slicing_impossibility",
    "tf_transformer",
    "torch_scatter",
    "validate_provision",
]
