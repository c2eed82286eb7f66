"""Exception types shared across the package."""


class PrecisionError(ArithmeticError):
    """A series operation would produce a result known modulo u**k with k <= 0."""


class ResourceLimitError(RuntimeError):
    """A configured safety bound (t-degree cap, field order) was exceeded."""
