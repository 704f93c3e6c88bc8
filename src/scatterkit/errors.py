"""Exception types shared across the package."""


class ArgumentError(ValueError):
    """Arguments violate a documented precondition (shape, rank, or flag)."""


class PickRangeError(ArgumentError, IndexError):
    """A pick value, or a source extent it picks, falls outside its range."""


class ValidationError(ArgumentError):
    """A provision table holds entries outside its declared target shape."""


class CollisionError(RuntimeError):
    """Two sources hit the same target cell under the Error collision policy."""

    def __init__(self, target, message=None):
        self.target = tuple(int(c) for c in target)
        super().__init__(
            message or f"colliding writes at target index {self.target}"
        )


class FormatError(ValueError):
    """A JSON document does not match the documented schema."""
