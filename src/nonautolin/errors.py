"""Exception types shared across the package."""

from __future__ import annotations


class NonautolinError(Exception):
    """Base class for package-specific errors."""


class SingularOperatorError(NonautolinError):
    """An operator at an index (A_n, A_n + df/du, Dg_n or Id + d bar_h/du) could
    not be inverted, or A_n @ A_n^{-1} failed the identity check."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        msg = f"singular operator at index {index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ContractionViolation(NonautolinError):
    """A step requires a contraction margin (|A_j^{-1}|*gamma_j < 1, or a
    certified first-variable contraction < 1) that does not hold."""

    def __init__(self, index: int, value: float, what: str = "|A^-1|*gamma"):
        self.index = index
        self.value = value
        super().__init__(f"contraction violated at index {index}: {what} = {value:.6g} >= 1")


class NoConvergence(NonautolinError):
    """A fixed-point iteration exhausted its iteration budget above tolerance."""

    def __init__(self, what: str, iterations: int, residual: float, tol: float):
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"{what}: no convergence after {iterations} iterations "
            f"(residual {residual:.3e} > tol {tol:.3e})"
        )


class WindowExhausted(NonautolinError):
    """A truncated series cannot reach the requested tail bound within the window cap."""

    def __init__(self, center: int, cap: int, target: float, reached: float | None):
        self.center = center
        self.cap = cap
        self.target = target
        self.reached = reached
        got = "unbounded" if reached is None else f"{reached:.3e}"
        super().__init__(
            f"series window at n={center} exhausted (cap {cap}): "
            f"tail bound {got} > target {target:.3e}"
        )


class ConfigError(NonautolinError):
    """Invalid run configuration (CLI exit code 2)."""
