"""Exceptions shared across the package."""


class RectiltError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(RectiltError):
    """A length/step cap was hit before the computation stabilised."""


class RelationIllFormed(RectiltError):
    """A relation's terms are not parallel composable paths of length >= 2."""


class NotTriangular(RectiltError):
    """A vertex split admits a nonzero path class from the inner to the outer part."""


class HypothesisFailed(RectiltError):
    """A theorem hypothesis failed; ``culprit`` names the failing condition."""

    def __init__(self, culprit, detail=""):
        self.culprit = culprit
        self.detail = detail
        msg = f"hypothesis failed: {culprit}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PossibleDivisionAlgebra(RectiltError):
    """End/rad has dimension > 1 but no splitting element was found."""
