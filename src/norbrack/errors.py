"""Exception types shared across the package."""


class NorbrackError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(NorbrackError):
    """Operands sampled on different grids were combined."""


class ImmersionDegenerate(NorbrackError):
    """A curve's finite-difference speed dropped to (numerical) zero."""


class GenerationFailed(NorbrackError):
    """Random curve generation could not reach the requested speed floor."""


class SupportViolation(NorbrackError):
    """Samples are nonzero outside the window they must vanish on."""


class StepTooLarge(NorbrackError):
    """A finite-difference step is too large for the curve's speed scale."""


class StepTooSmall(NorbrackError):
    """A finite-difference step is lost to rounding in the curve's points."""


class BasisTooLarge(NorbrackError):
    """More basis functions were requested than the grid can represent."""


class ConfigInvalid(NorbrackError):
    """A run configuration failed validation."""
