"""Exception hierarchy shared by all bladekit modules."""


class BladekitError(Exception):
    """Base class for all errors raised by bladekit."""


class DegenerateContour(BladekitError):
    """Contour has a zero-length edge or too few points."""


class CountMismatch(BladekitError):
    """Two contours that must share a node count do not."""


class MultivaluedAntiderivative(BladekitError):
    """Series has a nonzero residue term, so no single-valued antiderivative exists."""


class OutsideDomain(BladekitError):
    """Series evaluated outside its domain of analyticity."""


class InconsistentDistribution(BladekitError):
    """Velocity distribution violates the sign or monotonicity structure."""


class StagnationOffCircle(BladekitError):
    """Circulation too large for stagnation points to lie on the unit circle."""


class QuasisolutionDiverged(BladekitError):
    """Newton iteration on the correction parameters failed to converge."""


class OptimizerFailed(BladekitError):
    """Newton on the strip area did not reach its duality-gap certificate."""


class ConfigError(BladekitError):
    """Base class for configuration errors; carries a JSON-pointer location."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class MissingField(ConfigError):
    """Required configuration key absent."""

    def __init__(self, pointer: str):
        super().__init__(pointer, "required field is missing")


class BadValue(ConfigError):
    """Configuration value has the wrong type or an inadmissible value."""
