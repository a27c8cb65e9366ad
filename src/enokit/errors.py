"""Exception types shared across the package."""


class InvalidMesh(ValueError):
    """Coordinates are not strictly increasing or are otherwise unusable."""


class ShapeError(ValueError):
    """Companion sequences disagree in length."""


class StencilOutOfRange(ValueError):
    """A stencil window would reach outside the available data."""


class NonFiniteValue(ValueError):
    """A binary64 coordinate or data value is NaN or infinite."""
