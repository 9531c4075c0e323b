"""Exception types shared across the package."""


class LandscapeError(Exception):
    """Base class for all library errors."""


class UnknownProblem(LandscapeError):
    """Problem id does not name a registered problem."""


class UnsupportedSeed(LandscapeError):
    """Instance seed outside the problem's supported range."""


class UnsupportedDimension(LandscapeError):
    """Dimension outside the problem's supported set."""


class OutOfBounds(LandscapeError):
    """A point violates its box domain."""


class HeightMismatch(LandscapeError):
    """Grid segments with differing heights cannot be concatenated."""


class EmptyInput(LandscapeError):
    """An operation received an empty collection."""


class DegenerateDirection(LandscapeError):
    """Walk direction has zero length."""


class AnchorOutOfBounds(LandscapeError):
    """Walk anchor lies outside the box domain."""


class BadSampleSize(LandscapeError):
    """Requested design size is too small."""


class TooFewRows(LandscapeError):
    """Not enough rows for the requested operation."""


class SingleClass(LandscapeError):
    """Training labels contain fewer than two distinct values."""


class ManifestMismatch(LandscapeError):
    """Feature vector does not match the model's feature manifest, or was
    computed at another dimension or sample size than the model's."""


class TooFewGroups(LandscapeError):
    """Cross-validation needs at least three source groups."""


class PerplexityTooLarge(LandscapeError):
    """Perplexity must be below (rows - 1) / 3."""


class DegenerateInput(LandscapeError):
    """Embedding input rows are all identical."""


class TraceDisabled(LandscapeError):
    """The embedding run did not record a KL trace."""
