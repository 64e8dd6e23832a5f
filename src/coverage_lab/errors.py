"""Exception hierarchy shared across the package."""


class CoverageLabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CoverageLabError):
    pass


class EmptyPolytope(CoverageLabError):
    """`farkas`, when set, proves it: w >= 0 with A^T w = 0 and b.w < 0."""

    def __init__(self, message, farkas=None):
        super().__init__(message)
        self.farkas = farkas


class ExactUnsupported(CoverageLabError):
    """Exact certification requested for a region kind that only supports sampling."""


class UnsupportedRegion(CoverageLabError):
    pass


# --- region DSL ---

class DslError(CoverageLabError):
    pass


class DslSyntaxError(DslError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownIdentifier(DslError):
    pass


class ArityError(DslError):
    pass


class DimensionError(DslError):
    pass


class DslTypeError(DslError):
    pass


class EvalError(DslError):
    """A predicate met a point with a non-finite coordinate, or produced a
    non-finite intermediate (NaN/Inf), during evaluation."""


# --- classifier model ---

class SpecParseError(CoverageLabError):
    pass


class SchemaError(CoverageLabError):
    def __init__(self, field, message=None):
        super().__init__(message or f"invalid or missing field: {field!r}")
        self.field = field


class AmbiguousLabel(CoverageLabError):
    def __init__(self, point, names):
        super().__init__(f"point {list(point)} claimed by multiple regions: {names}")
        self.point = point
        self.names = names


class NoLabel(CoverageLabError):
    def __init__(self, point):
        super().__init__(f"point {list(point)} claimed by no region")
        self.point = point


# --- coverage engine ---

class PointNotInRegion(CoverageLabError):
    pass


class EmptyRegion(CoverageLabError):
    pass


class RefinementPoint(CoverageLabError):
    """Coverage queries at refinement-set points are undefined."""


class PointNotInAnyLabel(CoverageLabError):
    pass


# --- structure analysis ---

class DegenerateSequence(CoverageLabError):
    pass


class IoError(CoverageLabError):
    pass
