"""Uniform sampling grids shared by the residual scans and the density maps."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DEFAULT_GRID", "GridSpec"]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over position and, optionally, time.

    With the default time axis (a single sample at t = 0) this is a plain
    1-D spatial grid; supplying time bounds and t_steps > 1 makes it a
    space-time grid. Units are dimensionless (hbar = m = omega = 1).
    """

    x_min: float
    x_max: float
    x_steps: int
    t_min: float = 0.0
    t_max: float = 0.0
    t_steps: int = 1

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("grid requires x_min < x_max")
        if self.x_steps < 1 or self.t_steps < 1:
            raise ValueError("grid requires at least one sample per axis")
        if self.t_min > self.t_max:
            raise ValueError("grid requires t_min <= t_max")
        if not (math.isfinite(self.x_max - self.x_min) and math.isfinite(self.t_max - self.t_min)):
            raise ValueError("grid requires finite spans x_max - x_min and t_max - t_min")

    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.x_steps)

    def t_values(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_steps)


# The density command's grid: it covers three full revivals of the deformed
# states at the default z = 2.
DEFAULT_GRID = GridSpec(-8.0, 8.0, 401, 0.0, 2.0 * math.pi, 241)
