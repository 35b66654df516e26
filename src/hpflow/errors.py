"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live on incompatible grids or have incompatible sizes."""


class DomainError(ValueError):
    """Argument violates a mathematical precondition (imaginarity, unitarity, ...)."""


class NonlocalityError(RuntimeError):
    """A D_x^{-1} input has nonzero grid mean, so no periodic antiderivative exists.

    Carries the offending mean, the scale it was compared against, and the
    name of the operator block that produced the integrand.
    """

    def __init__(self, block: str, mean: float, scale: float, tolerance: float):
        self.block = block
        self.mean = mean
        self.scale = scale
        self.tolerance = tolerance
        super().__init__(
            f"nonlocal term {block!r}: integrand mean {mean:.3e} exceeds "
            f"tolerance {tolerance:.1e} relative to scale {scale:.3e}"
        )

    def __reduce__(self):
        # rebuild from the constructor's arguments, not the formatted message,
        # and keep attributes set later (hierarchy_flows sets hierarchy_level)
        return type(self), (self.block, self.mean, self.scale, self.tolerance), self.__dict__


class BlowUpError(RuntimeError):
    """Non-finite values appeared during time integration."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"solution blew up (non-finite values) at t = {time:.6g}")

    def __reduce__(self):
        return type(self), (self.time,), self.__dict__


class IntegrationAccuracyError(RuntimeError):
    """An ODE solve failed its accuracy or invariant-drift check."""


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""
