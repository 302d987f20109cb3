"""Structure-of-arrays quadrotor plant.

Steps ``L`` independent quadrotors in lockstep with one set of array
operations.  Every formula mirrors :class:`repro.dynamics.quadrotor.Quadrotor`
step for step — motor lag, mixer summation order, the RK4 call, ground
contact and both crash checks — so a one-lane batch reproduces the scalar
plant's trajectory to within floating-point associativity, and lanes never
interact: all cross-lane reductions are forbidden.

The public state ``y`` is lane-major, ``(L, 13)``, because the rest of the
batch core reads it a lane at a time.  The step itself works lane-minor:
it transposes the stepped lanes once into a contiguous ``(13, n)`` copy,
runs the motor lag and mixer on ``(4, n)`` rotor rows and RK4 on the
``(13, n)`` stack (see
:func:`repro.dynamics.quadrotor.lane_minor_derivative_factory`), and writes
the result back once.  Row formulas keep each element's operation order, so
the layout never changes a bit.

Crashed lanes keep their frozen state ("a crashed vehicle stays where it
fell") while the rest of the batch keeps flying; the step computes full-width
and restores the frozen lanes afterwards, which keeps the hot path free of
per-lane branching.
"""

from __future__ import annotations

import numpy as np

from ...dynamics.environment import Environment
from ...dynamics.integrators import rk4_step
from ...dynamics.quadrotor import (
    QuadrotorParameters,
    _normalize_quat_rows,
    lane_minor_derivative_factory,
)
from ...dynamics.state import quat_rotate_inverse_batched, quat_to_euler_batched

__all__ = ["BatchPlant"]


class BatchPlant:
    """``L`` quadrotor plants advanced in lockstep.

    State layout matches :meth:`RigidBodyState.as_vector`: ``y[:, 0:3]``
    position NED, ``y[:, 3:6]`` velocity, ``y[:, 6:10]`` quaternion (w,x,y,z),
    ``y[:, 10:13]`` body rates.
    """

    def __init__(
        self,
        initial_positions: np.ndarray,
        params: QuadrotorParameters | None = None,
        environment: Environment | None = None,
    ) -> None:
        self.params = params or QuadrotorParameters()
        self.environment = environment or Environment()
        positions = np.asarray(initial_positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("initial_positions must have shape (L, 3)")
        self.lanes = positions.shape[0]

        self.y = np.zeros((self.lanes, 13))
        self.y[:, 0:3] = positions
        self.y[:, 6] = 1.0
        self.motor_speed = np.zeros((self.lanes, 4))
        self.armed = np.zeros(self.lanes, dtype=bool)
        self.crashed = np.zeros(self.lanes, dtype=bool)
        self.crash_time = np.full(self.lanes, np.nan)
        self.time = 0.0

        ground = self.environment.ground_altitude
        below = self.y[:, 2] > ground
        self.on_ground = ~below & (np.abs(self.y[:, 2] - ground) < 1e-6)

        motor = self.params.motor
        self._min_speed = motor.min_speed
        self._max_speed = motor.max_speed
        self._time_constant = motor.time_constant
        self._k_thrust = motor.thrust_coefficient
        self._k_torque = motor.torque_coefficient
        geometry = self.params.geometry
        positions = geometry._position_tuples
        # Per-rotor mixer coefficients, one column per rotor row: the roll
        # and pitch arms multiply -thrust, the spin signs multiply the
        # reaction torque.  The pitch term -(x * -thrust) is (-x) * -thrust.
        self._arm_coeffs = np.array(
            [[p[1] for p in positions], [-p[0] for p in positions]]
        )[:, :, None]
        self._spin_coeffs = np.array(geometry.spin_directions, dtype=float)[:, None]
        self._tilt_limit = self.params.crash_tilt_limit
        self._impact_speed = self.params.crash_impact_speed
        self._gravity = self.environment.gravity_vector()
        self._wind = np.asarray(self.environment.wind.velocity_ned, dtype=float)
        self._make_derivative = lane_minor_derivative_factory(self.params, self.environment)

    def arm(self) -> None:
        """Arm every lane: idle the rotors and accept throttle."""
        self.armed[:] = True
        self.motor_speed = np.maximum(self.motor_speed, self._min_speed)

    # -- accessors ---------------------------------------------------------------

    def euler(self, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Roll/pitch/yaw of the selected lanes [rad]."""
        return quat_to_euler_batched(self.y[lanes, 6:10])

    def specific_force_body(self, lanes: np.ndarray) -> np.ndarray:
        """Accelerometer measurement (specific force, body frame) per lane.

        Mirrors :meth:`Quadrotor.specific_force_body`: grounded, uncrashed
        lanes read the reaction to gravity; airborne (or crashed) lanes read
        ``(thrust + drag) / mass``.
        """
        speed = self.motor_speed[lanes]
        thrust = self._k_thrust * speed**2
        force_body = np.zeros((lanes.shape[0], 3))
        force_body[:, 2] = -(
            ((thrust[:, 0] + thrust[:, 1]) + thrust[:, 2]) + thrust[:, 3]
        )
        quat = self.y[lanes, 6:10]
        air_velocity = self.y[lanes, 3:6] - self._wind
        drag_ned = -self.params.linear_drag * air_velocity
        drag_body = quat_rotate_inverse_batched(quat, drag_ned)
        out = (force_body + drag_body) / self.params.mass
        grounded = self.on_ground[lanes] & ~self.crashed[lanes]
        if grounded.any():
            gravity_body = quat_rotate_inverse_batched(
                quat[grounded],
                np.broadcast_to(-self._gravity, (int(grounded.sum()), 3)),
            )
            out[grounded] = gravity_body
        return out

    # -- stepping ----------------------------------------------------------------

    def step(self, commands: np.ndarray, dt: float, step_mask: np.ndarray) -> None:
        """Advance every lane selected by ``step_mask`` by ``dt`` seconds.

        ``step_mask`` excludes lanes the simulation has frozen for non-plant
        reasons (geofence breach); crashed lanes are always frozen.  The
        shared ``time`` advances regardless, exactly like the scalar plant's
        crashed branch.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.armed &= ~self.crashed
        active = step_mask & ~self.crashed
        idx = np.flatnonzero(active)
        if idx.size == 0:
            self.time += dt
            return

        # Rotor rows: (4, n), one column per stepped lane.
        throttle = np.clip(commands[idx].T, 0.0, 1.0)
        target = np.where(
            self.armed[idx],
            self._min_speed + throttle * (self._max_speed - self._min_speed),
            0.0,
        )
        speed = self.motor_speed[idx].T
        alpha = dt / (self._time_constant + dt)
        speed = speed + alpha * (target - speed)
        self.motor_speed[idx] = speed.T

        # Mixer with the scalar accumulation order: a left fold over rotors
        # of the rows (thrust, roll torque, pitch torque, yaw torque).
        squared = speed**2
        terms = np.empty((4, 4, idx.size))
        np.multiply(self._k_thrust, squared, out=terms[0])
        np.multiply(self._arm_coeffs, -terms[0], out=terms[1:3])
        np.multiply(self._spin_coeffs, self._k_torque * squared, out=terms[3])
        wrench = ((terms[:, 0] + terms[:, 1]) + terms[:, 2]) + terms[:, 3]
        force_body = np.zeros((3, idx.size))
        np.negative(wrench[0], out=force_body[2])

        f = self._make_derivative(force_body, wrench[1:4])
        rows = rk4_step(f, self.time, self.y[idx].T.copy(), dt)
        # from_vector normalises, then the scalar step normalises explicitly.
        rows[6:10] = _normalize_quat_rows(_normalize_quat_rows(rows[6:10]))
        y_next = rows.T
        roll, pitch, _yaw = quat_to_euler_batched(y_next[:, 6:10])
        tilt = np.maximum(np.abs(roll), np.abs(pitch))

        # Ground contact: crash_time is the *pre-increment* time here.
        ground = self.environment.ground_altitude
        below = y_next[:, 2] >= ground
        if below.any():
            hard = below & (
                (y_next[:, 5] > self._impact_speed) | (tilt > self._tilt_limit)
            )
            impact = idx[hard]
            self.crashed[impact] = True
            self.crash_time[impact] = self.time
            self.armed[impact] = False
            y_next[below, 2] = ground
            y_next[below, 3:6] = 0.0
            y_next[below, 10:13] = 0.0
        self.on_ground[idx] = below
        self.y[idx] = y_next
        self.time += dt

        # Flip check: crash_time is the *post-increment* time here.
        check = ~self.crashed[idx]
        flip = check & (tilt > self._tilt_limit) & (-y_next[:, 2] < 0.3)
        flipped = idx[flip]
        if flipped.size:
            self.crashed[flipped] = True
            self.crash_time[flipped] = self.time
            self.armed[flipped] = False
