"""Exception types shared across the package."""


class MvaSlamError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSurface(MvaSlamError):
    """Surface line passes through (or too close to) the reference origin."""


class CoincidentPoints(MvaSlamError):
    """Two points expected to be distinct coincide."""


class NonFinite(MvaSlamError):
    """A computation produced NaN or infinite values."""


class DegenerateWeights(MvaSlamError):
    """All particle weights underflowed to zero; the run has diverged."""


class ScenarioError(MvaSlamError):
    """Scenario configuration failed validation."""
