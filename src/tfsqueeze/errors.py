"""Exception types shared by all tfsqueeze modules, one per way a caller handles a failure."""


class TFSqueezeError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(TFSqueezeError):
    """A precondition on an operation's inputs was violated: a bad value,
    mismatched shapes, an off-axis frequency or an all-zero grid."""


class NonInvertibleGridError(TFSqueezeError):
    """Reconstruction requested from a grid without a finite reconstruction factor."""


class FormatError(TFSqueezeError):
    """A file could not be parsed or uses a variant this library does not
    accept; the message names the file."""
