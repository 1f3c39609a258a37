"""Exception types shared across the package."""


class NerveCertError(Exception):
    """Base class for all library-specific errors."""


class NotAFaceError(NerveCertError, ValueError):
    """A face argument does not belong to the complex it was used with."""


class DimensionMismatchError(NerveCertError, ValueError):
    """Ambient dimensions of geometric arguments disagree."""


class EmptyPolytopeError(NerveCertError):
    """An operation that needs a nonempty polytope received an empty one."""


class UnboundedPolytopeError(NerveCertError):
    """An operation that needs a bounded polytope hit an unbounded direction."""


class GenericityError(NerveCertError):
    """A crossing query met a degenerate configuration.

    The caller should perturb the placement parameters and retry; parity is
    only defined for generic straight-line maps.
    """


class LabelMismatchError(NerveCertError, ValueError):
    """Family labels and complex vertices do not coincide."""


class NerveMismatchError(NerveCertError):
    """Witness construction refused because the claimed nerve is wrong.

    ``match`` is the `NerveMatch` that names the mismatch, so a caller can
    certify it without computing the nerve again.
    """

    def __init__(self, message: str, match=None) -> None:
        super().__init__(message)
        self.match = match


class SourceLabelingError(NerveCertError, ValueError):
    """A witness map was applied through a subdivision it was not built on."""


class ParseError(NerveCertError, ValueError):
    """A document failed to parse or validate."""
