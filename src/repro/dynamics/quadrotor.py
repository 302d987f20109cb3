"""6-DOF rigid-body quadrotor model.

This is the physical plant that replaces the paper's prototype drone
(Raspberry Pi 3 + Navio2 on a 450-class frame).  The model includes:

* rigid-body translational and rotational dynamics in NED,
* four rotors with first-order lag, quadratic thrust and reaction torque,
* linear aerodynamic drag,
* a ground plane with a simple contact model,
* crash detection (excessive attitude near the ground or ground impact at
  speed), which is what the Figure 4 experiment needs to register the
  "drone crashes shortly after" outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .environment import ConstantWind, Environment
from .integrators import INTEGRATORS
from .mixer import QuadGeometry, forces_and_torques
from .motor import MotorBank, MotorParameters
from .state import (
    RigidBodyState,
    quat_derivative,
    quat_normalize,
    quat_rotate,
    quat_rotate_inverse,
    quat_to_euler,
)

__all__ = [
    "QuadrotorParameters",
    "Quadrotor",
    "lane_minor_derivative_factory",
]


def _default_inertia() -> np.ndarray:
    return np.diag([0.011, 0.011, 0.021])


def _default_drag() -> np.ndarray:
    return np.array([0.10, 0.10, 0.15])


@dataclass
class QuadrotorParameters:
    """Mass properties and aerodynamic coefficients of the vehicle."""

    mass: float = 1.2
    inertia: np.ndarray = field(default_factory=_default_inertia)
    linear_drag: np.ndarray = field(default_factory=_default_drag)
    angular_drag: float = 0.002
    geometry: QuadGeometry = field(default_factory=QuadGeometry)
    motor: MotorParameters = field(default_factory=MotorParameters)
    #: Attitude beyond which a low-altitude vehicle is considered crashed [rad].
    crash_tilt_limit: float = np.deg2rad(75.0)
    #: Vertical speed above which touching the ground counts as a crash [m/s].
    crash_impact_speed: float = 2.0

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        self.inertia = np.asarray(self.inertia, dtype=float)
        if self.inertia.shape != (3, 3):
            raise ValueError("inertia must be a 3x3 matrix")
        if np.any(np.diag(self.inertia) <= 0.0):
            raise ValueError("inertia diagonal must be positive")
        self.linear_drag = np.asarray(self.linear_drag, dtype=float)

    @property
    def hover_thrust_fraction(self) -> float:
        """Fraction of total maximum thrust needed to hover."""
        weight = self.mass * 9.80665
        return weight / (4.0 * self.motor.max_thrust)


#: Identity quaternion as a ``(4, 1)`` column, broadcast over lanes.
_IDENTITY_COLUMN = np.array([[1.0], [0.0], [0.0], [0.0]])

# Cross products over row stacks: gathering u at rows _CROSS_U and v at rows
# _CROSS_V gives the six products whose halves subtract to u x v, since
# (u x v)_i = u_{i+1} v_{i+2} - u_{i+2} v_{i+1}.
_CROSS_U = np.array([1, 2, 0, 2, 0, 1])
_CROSS_V = np.array([2, 0, 1, 1, 2, 0])
# Quaternion rows for the thrust rotation: the vector part (which starts at
# row 1) in _CROSS_U order, then w three times.
_ROTATION_QUAT_ROWS = np.concatenate((_CROSS_U + 1, [0, 0, 0]))

# Row gathers for qdot = 0.5 * q (x) (0, omega) over ``concatenate((q, -q))``
# (rows 0-3 are w, x, y, z; rows 4-7 their negations).  Product k of
# component r sits at row ``4 * k + r``:
#   qdot_w = (-x w0 + -y w1) + -z w2      qdot_x = (w w0 + y w2) + -z w1
#   qdot_y = (w w1 + -x w2) + z w0        qdot_z = (w w2 + x w1) + -y w0
_QDOT_QUAT_ROWS = np.array([5, 0, 0, 0, 6, 2, 5, 1, 7, 7, 3, 6])
_QDOT_OMEGA_ROWS = np.array([0, 0, 1, 2, 1, 2, 2, 1, 2, 1, 0, 0])

# Each row of a 3-vector stack repeated 6 or 3 times, block after block.
_SPREAD_6 = np.repeat(np.arange(3), 6)
_SPREAD_3 = np.repeat(np.arange(3), 3)


def _normalize_quat_rows(q: np.ndarray) -> np.ndarray:
    """:func:`~repro.dynamics.state.quat_normalize_batched` over ``(4, n)`` rows.

    Same sum order and the same ``< 1e-12`` guard (a degenerate column maps
    to the identity); a NaN column compares false and stays NaN.
    """
    squares = q * q
    norm = np.sqrt(((squares[0] + squares[1]) + squares[2]) + squares[3])
    degenerate = norm < 1e-12
    if not np.count_nonzero(degenerate):
        return q / norm
    out = q / np.where(degenerate, 1.0, norm)
    out[:, degenerate] = _IDENTITY_COLUMN
    return out


def lane_minor_derivative_factory(params: QuadrotorParameters, environment: Environment):
    """Lane-minor vectorised counterpart of :meth:`Quadrotor._derivative`.

    States are ``(13, n)`` stacks: one contiguous row per state component,
    one column per lane, so every formula below is a handful of whole-row
    ufunc calls whatever the width.  The outer call hoists what is constant
    over a flight (wind, gravity, drag, mass, the inertia tensor and its
    inverse); the returned ``make`` binds one step's body wrench — ``(3, n)``
    forces and torques, held constant across the integrator stages exactly
    as the scalar plant holds them — and yields ``f(t, y)`` for the
    shape-agnostic integrators in :mod:`repro.dynamics.integrators`.

    Each element is evaluated in the operation order of its component
    formula (spelled out in the comments below), up to IEEE-exact rewrites
    only: swapping the operands of one ``+`` or ``*``, ``a - b`` as
    ``a + (-b)`` and ``(-a) * b`` as ``-(a * b)``.  So row-wise evaluation
    gives the same bits as component-wise evaluation, and since all
    arithmetic is elementwise over the lane axis, a lane's derivative never
    depends on the batch width.

    Only :class:`~repro.dynamics.environment.ConstantWind` is supported: a
    time- or position-dependent wind field would need the per-lane plant time,
    which the lockstep batch core deliberately shares.
    """
    if not isinstance(environment.wind, ConstantWind):
        raise TypeError(
            "lane_minor_derivative_factory supports ConstantWind only; "
            f"got {type(environment.wind).__name__}"
        )
    inertia = np.asarray(params.inertia, dtype=float)
    # ``M @ v`` over a (3, n) stack is the left fold over j of M[:, j] * v[j].
    # Stacking the three j blocks row-wise turns each product into one
    # elementwise multiply of ``v.take(_SPREAD_*)`` by the coefficient rows;
    # the gyroscopic term takes I @ omega straight in _CROSS_V row order.
    columns = (
        np.asarray(environment.wind.velocity_ned, dtype=float),
        environment.gravity_vector(),
        -np.asarray(params.linear_drag, dtype=float),
        np.full(3, params.mass),
        np.full(3, 2.0),
        np.full(3, -params.angular_drag),
        np.full(4, 0.5),
        inertia[_CROSS_V].T.ravel(),
        np.linalg.inv(inertia).T.ravel(),
    )
    widened: dict[int, tuple[np.ndarray, ...]] = {}

    def make(force_body: np.ndarray, torque_body: np.ndarray):
        lanes = force_body.shape[1]
        if lanes not in widened:
            # Constants as full (rows, lanes) arrays: elementwise ufuncs on
            # equal shapes skip numpy's broadcasting set-up, which costs as
            # much as the arithmetic at these widths.
            widened[lanes] = tuple(np.repeat(c[:, None], lanes, axis=1) for c in columns)
        (
            wind, gravity, neg_drag, mass, two, neg_angular_drag, half,
            inertia_cross, inertia_inv,
        ) = widened[lanes]
        force_cross = force_body.take(_CROSS_V, axis=0)

        def f(_t: float, y: np.ndarray) -> np.ndarray:
            # from_vector normalises once and the scalar derivative
            # normalises again; replicate both (the second pass still moves
            # the last ulp) so stage quaternions stay on the unit sphere.
            quat = _normalize_quat_rows(_normalize_quat_rows(y[6:10]))
            gathered = quat.take(_ROTATION_QUAT_ROWS, axis=0)
            qvec_cross = gathered[0:6]

            # Body-to-world rotation of the thrust vector, in the expanded
            # c = 2 (q_vec x f), f' = f + w c + q_vec x c form: equal to the
            # Hamilton sandwich for unit quaternions.
            products = qvec_cross * force_cross
            c = two * (products[0:3] - products[3:6])
            products = qvec_cross * c.take(_CROSS_V, axis=0)
            rotated = (force_body + gathered[6:9] * c) + (products[0:3] - products[3:6])

            derivative = np.empty(y.shape)
            derivative[0:3] = y[3:6]
            np.add(
                (rotated + neg_drag * (y[3:6] - wind)) / mass,
                gravity,
                out=derivative[3:6],
            )

            omega = y[10:13]
            # qdot = 0.5 * q (x) (0, omega), zero terms dropped.
            products = np.concatenate((quat, -quat)).take(
                _QDOT_QUAT_ROWS, axis=0
            ) * omega.take(_QDOT_OMEGA_ROWS, axis=0)
            np.multiply(
                half,
                (products[0:4] + products[4:8]) + products[8:12],
                out=derivative[6:10],
            )

            terms = inertia_cross * omega.take(_SPREAD_6, axis=0)
            inertia_omega = (terms[0:6] + terms[6:12]) + terms[12:18]
            products = omega.take(_CROSS_U, axis=0) * inertia_omega
            torque = (torque_body + neg_angular_drag * omega) - (
                products[0:3] - products[3:6]
            )
            terms = inertia_inv * torque.take(_SPREAD_3, axis=0)
            np.add(terms[0:3] + terms[3:6], terms[6:9], out=derivative[10:13])
            return derivative

        return f

    return make


class Quadrotor:
    """Simulated quadrotor plant.

    The plant is advanced with :meth:`step`, which takes the four normalised
    motor commands (0..1) produced by the flight controller's output mixer.
    """

    def __init__(
        self,
        params: QuadrotorParameters | None = None,
        environment: Environment | None = None,
        initial_state: RigidBodyState | None = None,
        integrator: str = "rk4",
    ) -> None:
        self.params = params or QuadrotorParameters()
        self.environment = environment or Environment()
        self.state = initial_state.copy() if initial_state else RigidBodyState()
        self.motors = MotorBank(4, self.params.motor)
        if integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {integrator!r}")
        self._integrate = INTEGRATORS[integrator]
        self._inertia_inv = np.linalg.inv(self.params.inertia)
        self.time = 0.0
        self._crashed = False
        self._crash_time: float | None = None
        self._on_ground = not self.environment.below_ground(self.state.position) and (
            abs(self.state.position[2] - self.environment.ground_altitude) < 1e-6
        )

    @property
    def crashed(self) -> bool:
        """True once the vehicle has crashed; the flag is latching."""
        return self._crashed

    @property
    def crash_time(self) -> float | None:
        """Simulation time at which the crash occurred, if any."""
        return self._crash_time

    @property
    def on_ground(self) -> bool:
        """True while the vehicle is resting on the ground plane."""
        return self._on_ground

    def arm(self) -> None:
        """Arm all motors."""
        self.motors.arm()

    def disarm(self) -> None:
        """Disarm all motors."""
        self.motors.disarm()

    def set_state(self, state: RigidBodyState) -> None:
        """Replace the vehicle state (used to initialise hover scenarios)."""
        self.state = state.copy()

    def _derivative(self, force_body: np.ndarray, torque_body: np.ndarray):
        """Return the rigid-body state derivative for the given wrench."""
        params = self.params
        env = self.environment

        def f(_t: float, y: np.ndarray) -> np.ndarray:
            state = RigidBodyState.from_vector(y)
            quat = quat_normalize(state.quaternion)

            wind = env.wind_at(self.time, state.position)
            air_velocity = state.velocity - wind
            drag_force_ned = -params.linear_drag * air_velocity

            force_ned = quat_rotate(quat, force_body) + drag_force_ned
            acceleration = force_ned / params.mass + env.gravity_vector()

            omega = state.angular_velocity
            drag_torque = -params.angular_drag * omega
            # Gyroscopic term omega x (I omega), expanded component-wise: the
            # generic np.cross carries broadcasting machinery that dominated
            # the flight hot path.
            inertia_omega = params.inertia @ omega
            gyroscopic = np.array([
                omega[1] * inertia_omega[2] - omega[2] * inertia_omega[1],
                omega[2] * inertia_omega[0] - omega[0] * inertia_omega[2],
                omega[0] * inertia_omega[1] - omega[1] * inertia_omega[0],
            ])
            angular_acceleration = self._inertia_inv @ (
                torque_body + drag_torque - gyroscopic
            )

            derivative = np.empty(13)
            derivative[0:3] = state.velocity
            derivative[3:6] = acceleration
            derivative[6:10] = quat_derivative(quat, omega)
            derivative[10:13] = angular_acceleration
            return derivative

        return f

    def step(self, motor_commands: np.ndarray, dt: float) -> RigidBodyState:
        """Advance the plant by ``dt`` seconds under the given motor commands.

        Parameters
        ----------
        motor_commands:
            Normalised per-rotor throttle commands in [0, 1].
        dt:
            Integration step [s].
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if self._crashed:
            # A crashed vehicle stays where it fell; motors are cut.
            self.motors.disarm()
            self.time += dt
            return self.state

        motor_commands = np.asarray(motor_commands, dtype=float)
        self.motors.step(motor_commands, dt)
        force_body, torque_body = forces_and_torques(
            self.motors.thrusts, self.motors.torques, self.params.geometry
        )

        y = self.state.as_vector()
        y_next = self._integrate(self._derivative(force_body, torque_body), self.time, y, dt)
        next_state = RigidBodyState.from_vector(y_next)
        next_state.quaternion = quat_normalize(next_state.quaternion)

        self._apply_ground_contact(next_state)
        self.state = next_state
        self.time += dt
        self._check_crash()
        return self.state

    def _apply_ground_contact(self, state: RigidBodyState) -> None:
        """Clamp the state to the ground plane and detect hard impacts."""
        ground_z = self.environment.ground_altitude
        if state.position[2] >= ground_z:
            descent_speed = float(state.velocity[2])
            roll, pitch, _ = quat_to_euler(state.quaternion)
            tilted = max(abs(roll), abs(pitch)) > self.params.crash_tilt_limit
            if descent_speed > self.params.crash_impact_speed or tilted:
                self._register_crash()
            state.position[2] = ground_z
            state.velocity[:] = 0.0
            state.angular_velocity[:] = 0.0
            self._on_ground = True
        else:
            self._on_ground = False

    def _check_crash(self) -> None:
        """Flag a crash when the vehicle flips over close to the ground."""
        if self._crashed:
            return
        roll, pitch, _ = quat_to_euler(self.state.quaternion)
        tilt = max(abs(roll), abs(pitch))
        if tilt > self.params.crash_tilt_limit and self.state.altitude < 0.3:
            self._register_crash()

    def _register_crash(self) -> None:
        self._crashed = True
        self._crash_time = self.time
        self.motors.disarm()

    # -- convenience accessors -------------------------------------------------

    @property
    def position(self) -> np.ndarray:
        """NED position [m]."""
        return self.state.position

    @property
    def velocity(self) -> np.ndarray:
        """NED velocity [m/s]."""
        return self.state.velocity

    @property
    def attitude(self) -> tuple[float, float, float]:
        """Roll, pitch, yaw in radians."""
        return self.state.euler

    @property
    def altitude(self) -> float:
        """Altitude above the NED origin [m]."""
        return self.state.altitude

    def specific_force_body(self) -> np.ndarray:
        """Specific force (accelerometer measurement) in the body frame [m/s^2].

        On the ground the accelerometer reads the reaction to gravity; in free
        fall it reads zero.  Used by the IMU sensor model.
        """
        force_body, _ = forces_and_torques(
            self.motors.thrusts, self.motors.torques, self.params.geometry
        )
        wind = self.environment.wind_at(self.time, self.state.position)
        air_velocity = self.state.velocity - wind
        drag_ned = -self.params.linear_drag * air_velocity
        drag_body = quat_rotate_inverse(self.state.quaternion, drag_ned)
        if self._on_ground and not self._crashed:
            gravity_body = quat_rotate_inverse(
                self.state.quaternion, -self.environment.gravity_vector()
            )
            return gravity_body
        return (force_body + drag_body) / self.params.mass
