"""Exception types shared across the package.

Fatal structural failures raise; soft failures (iteration limits) are
returned as flags on result objects instead.
"""


class MFGLabError(Exception):
    """Base class so the CLI can map failures to exit codes."""


class AssumptionFailure(MFGLabError):
    """A standing assumption check failed (CLI exit code 2)."""


class GapViolated(AssumptionFailure):
    def __init__(self, probe_label, gap, delta0):
        super().__init__(
            f"confinement gap {gap:.6g} below declared delta0={delta0:.6g} "
            f"for probe {probe_label}"
        )
        self.gap = gap
        self.delta0 = delta0


class MaximizerOnBoundary(MFGLabError):
    def __init__(self, x, p):
        super().__init__(f"Legendre maximizer on velocity-grid boundary at x={x}, p={p}")


class MinimizerOnBoundary(MFGLabError):
    def __init__(self, t, x):
        super().__init__(f"optimal velocity on velocity-grid boundary at t={t:.6g}, x={x}")


class MinOnBoundary(MFGLabError):
    def __init__(self, x):
        super().__init__(f"grid minimum attained on the box boundary at x={x}")


class NotReversible(MFGLabError):
    pass


class UnsupportedDimension(MFGLabError):
    pass


class SupportTooLarge(MFGLabError):
    pass


class TransportLPFailed(MFGLabError):
    """HiGHS returned no optimum for a d_1 transport LP (CLI exit code 5)."""


class NotLipschitz(MFGLabError):
    pass


class LipschitzExceeded(MFGLabError):
    pass


class RadiusTooSmall(MFGLabError):
    pass


class NonPositiveError(MFGLabError):
    pass


class NoStabilization(MFGLabError):
    pass


class CycleDetected(MFGLabError):
    pass


class Mismatch(MFGLabError):
    def __init__(self, filename, line_no, got, want):
        super().__init__(
            f"reproduce mismatch in {filename} at line {line_no}: {got!r} != {want!r}"
        )
        self.filename = filename
        self.line_no = line_no
