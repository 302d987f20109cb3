"""Fixed-step numerical integrators for the vehicle dynamics.

The co-simulation engine advances the physics with a fixed step, so only
explicit fixed-step schemes are provided.  RK4 is the default for the
quadrotor model; the forward-Euler scheme is kept for speed-sensitive tests
and for cross-checking.

Both schemes are shape-agnostic: every operation is elementwise in ``y``, so
the same functions integrate a single ``(13,)`` state vector (the scalar
plant) and a lane-minor ``(13, n)`` state stack, one column per lane (the
batched plant in :mod:`repro.sim.batch` — see
:func:`repro.dynamics.quadrotor.lane_minor_derivative_factory`), with
identical per-lane arithmetic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["euler_step", "rk4_step", "INTEGRATORS"]

Derivative = Callable[[float, np.ndarray], np.ndarray]


def euler_step(f: Derivative, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """One forward-Euler step of ``y' = f(t, y)``."""
    return y + dt * f(t, y)


def rk4_step(f: Derivative, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta 4 step of ``y' = f(t, y)``."""
    k1 = f(t, y)
    k2 = f(t + dt / 2.0, y + dt / 2.0 * k1)
    k3 = f(t + dt / 2.0, y + dt / 2.0 * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


#: Registry of available integrators keyed by name.
INTEGRATORS: dict[str, Callable[[Derivative, float, np.ndarray, float], np.ndarray]] = {
    "euler": euler_step,
    "rk4": rk4_step,
}
