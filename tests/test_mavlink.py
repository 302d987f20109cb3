"""Tests for the MAVLink-like message set, codec, connection and router."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mavlink import (
    MESSAGE_REGISTRY,
    ActuatorOutputs,
    AttitudeTarget,
    DecodeError,
    GpsRawInt,
    Heartbeat,
    HighresImu,
    LocalPositionNed,
    MavlinkCodec,
    MavlinkConnection,
    MessageRouter,
    MOTOR_PORT,
    RcChannelsOverride,
    SENSOR_PORT,
    ScaledPressure,
    crc16,
    message_class_for_id,
)
from repro.network import CONTAINER_NAMESPACE, HOST_NAMESPACE, NetworkStack


class TestTableOneFrameSizes:
    """Framed message sizes must reproduce Table I of the paper."""

    @pytest.mark.parametrize(
        "message, expected_size",
        [
            (HighresImu(), 52),
            (ScaledPressure(), 32),
            (GpsRawInt(), 44),
            (RcChannelsOverride(), 50),
            (ActuatorOutputs(), 29),
        ],
    )
    def test_frame_size_matches_table1(self, message, expected_size):
        codec = MavlinkCodec()
        assert len(codec.encode(message)) == expected_size
        assert codec.frame_size(message) == expected_size

    def test_table1_ports(self):
        assert SENSOR_PORT == 14660
        assert MOTOR_PORT == 14600


class TestMessageRoundtrips:
    @pytest.mark.parametrize(
        "message",
        [
            Heartbeat(time_ms=1234, system_status=3),
            HighresImu(time_ms=5, gyro=(0.1, -0.2, 0.3), accel=(0.0, 0.1, -9.8)),
            ScaledPressure(time_ms=7, pressure_abs=99000.0, altitude_m=220.5),
            GpsRawInt(time_ms=11, lat_e7=401106000, lon_e7=-882073000, alt_mm=220000),
            RcChannelsOverride(time_ms=13, channels=tuple(range(1000, 1016))),
            LocalPositionNed(time_ms=17, x=1.0, y=-2.0, z=-1.5, yaw=0.3),
            ActuatorOutputs(time_ms=19, motors=(0.1, 0.2, 0.3, 0.4), sequence=42),
            AttitudeTarget(time_ms=23, roll=0.1, pitch=-0.1, yaw=0.5, thrust=0.6),
        ],
    )
    def test_pack_unpack_roundtrip(self, message):
        rebuilt = type(message).unpack(message.pack())
        assert rebuilt.time_ms == message.time_ms

    def test_actuator_outputs_preserves_motor_values(self):
        message = ActuatorOutputs.from_command(100, np.array([0.11, 0.22, 0.33, 0.44]), 5)
        rebuilt = ActuatorOutputs.unpack(message.pack())
        assert np.allclose(rebuilt.motors, [0.11, 0.22, 0.33, 0.44], atol=1e-6)
        assert rebuilt.sequence == 5

    def test_highres_imu_from_arrays(self):
        message = HighresImu.from_arrays(77, np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        rebuilt = HighresImu.unpack(message.pack())
        assert np.allclose(rebuilt.gyro, [1.0, 2.0, 3.0], atol=1e-6)
        assert np.allclose(rebuilt.accel, [4.0, 5.0, 6.0], atol=1e-6)

    def test_registry_ids_unique_and_resolvable(self):
        for msg_id, cls in MESSAGE_REGISTRY.items():
            assert message_class_for_id(msg_id) is cls

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            message_class_for_id(9999)


class TestCodec:
    def test_encode_decode_roundtrip(self):
        codec = MavlinkCodec(system_id=7)
        frame = MavlinkCodec().decode(codec.encode(Heartbeat(time_ms=9)))
        assert isinstance(frame.message, Heartbeat)
        assert frame.system_id == 7
        assert frame.message.time_ms == 9

    def test_sequence_increments_and_wraps(self):
        codec = MavlinkCodec()
        decoder = MavlinkCodec()
        first = decoder.decode(codec.encode(Heartbeat()))
        second = decoder.decode(codec.encode(Heartbeat()))
        assert second.sequence == (first.sequence + 1) % 256

    def test_truncated_datagram_rejected(self):
        codec = MavlinkCodec()
        with pytest.raises(DecodeError):
            codec.decode(b"\xfd\x01")
        assert codec.decode_errors == 1

    def test_bad_magic_rejected(self):
        codec = MavlinkCodec()
        data = bytearray(codec.encode(Heartbeat()))
        data[0] = 0x55
        with pytest.raises(DecodeError):
            MavlinkCodec().decode(bytes(data))

    def test_corrupted_payload_fails_crc(self):
        codec = MavlinkCodec()
        data = bytearray(codec.encode(HighresImu()))
        data[12] ^= 0xFF
        with pytest.raises(DecodeError):
            MavlinkCodec().decode(bytes(data))

    def test_garbage_flood_payload_rejected(self):
        codec = MavlinkCodec()
        with pytest.raises(DecodeError):
            codec.decode(b"\x00" * 64)

    def test_crc16_known_properties(self):
        assert crc16(b"") == 0xFFFF
        assert crc16(b"hello") != crc16(b"hellp")

    def test_crc16_ccitt_false_check_value(self):
        # The catalogued check value of CRC-16/CCITT-FALSE.
        assert crc16(b"123456789") == 0x29B1

    @pytest.mark.parametrize("seed", [0xFFFF, 0x0000, 0x1234])
    def test_crc16_matches_bitwise_reference(self, seed):
        def reference(data: bytes, crc: int) -> int:
            for byte in data:
                crc ^= byte << 8
                for _ in range(8):
                    if crc & 0x8000:
                        crc = ((crc << 1) ^ 0x1021) & 0xFFFF
                    else:
                        crc = (crc << 1) & 0xFFFF
            return crc

        rng = np.random.default_rng(seed)
        for length in range(301):
            data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            assert crc16(data, seed) == reference(data, seed)

    @given(st.binary(min_size=0, max_size=128))
    @settings(max_examples=100, deadline=None)
    def test_decoder_never_crashes_on_garbage(self, data):
        codec = MavlinkCodec()
        try:
            codec.decode(data)
        except DecodeError:
            pass


@pytest.fixture
def stack():
    return NetworkStack()


class TestMavlinkConnection:
    def test_send_and_receive(self, stack):
        sender = MavlinkConnection(stack, HOST_NAMESPACE, 47001, CONTAINER_NAMESPACE, SENSOR_PORT)
        receiver = MavlinkConnection(stack, CONTAINER_NAMESPACE, SENSOR_PORT, HOST_NAMESPACE, 0)
        assert sender.send(0.0, Heartbeat(time_ms=1))
        frames = receiver.receive(0.01)
        assert len(frames) == 1
        assert isinstance(frames[0].message, Heartbeat)

    def test_receive_before_latency_elapses_is_empty(self, stack):
        sender = MavlinkConnection(stack, HOST_NAMESPACE, 47001, CONTAINER_NAMESPACE, SENSOR_PORT)
        receiver = MavlinkConnection(stack, CONTAINER_NAMESPACE, SENSOR_PORT, HOST_NAMESPACE, 0)
        sender.send(0.0, Heartbeat())
        assert receiver.receive(0.0) == []

    def test_malformed_datagram_counted(self, stack):
        receiver = MavlinkConnection(stack, HOST_NAMESPACE, MOTOR_PORT, CONTAINER_NAMESPACE, 0)
        stack.send(0.0, b"\x00" * 32, CONTAINER_NAMESPACE, 5555, HOST_NAMESPACE, MOTOR_PORT)
        frames = receiver.receive(0.01)
        assert frames == []
        assert receiver.malformed_received == 1

    def test_close_unbinds_endpoint(self, stack):
        receiver = MavlinkConnection(stack, HOST_NAMESPACE, MOTOR_PORT, CONTAINER_NAMESPACE, 0)
        receiver.close()
        assert receiver.closed
        assert receiver.receive(1.0) == []
        assert not stack.send(1.0, b"x", CONTAINER_NAMESPACE, 5555, HOST_NAMESPACE, MOTOR_PORT)

    def test_duplicate_bind_rejected(self, stack):
        MavlinkConnection(stack, HOST_NAMESPACE, MOTOR_PORT, CONTAINER_NAMESPACE, 0)
        with pytest.raises(ValueError):
            MavlinkConnection(stack, HOST_NAMESPACE, MOTOR_PORT, CONTAINER_NAMESPACE, 0)


class TestMessageRouter:
    def test_dispatch_to_subscribed_handler(self):
        router = MessageRouter()
        received = []
        router.subscribe(Heartbeat, lambda message, now: received.append((message, now)))
        codec = MavlinkCodec()
        frame = MavlinkCodec().decode(codec.encode(Heartbeat(time_ms=3)))
        assert router.dispatch(frame, 1.5)
        assert received[0][1] == 1.5

    def test_unhandled_message_counted(self):
        router = MessageRouter()
        codec = MavlinkCodec()
        frame = MavlinkCodec().decode(codec.encode(Heartbeat()))
        assert not router.dispatch(frame, 0.0)
        assert router.unhandled == 1

    def test_dispatch_all_counts_consumed(self):
        router = MessageRouter()
        router.subscribe(Heartbeat, lambda message, now: None)
        codec = MavlinkCodec()
        decoder = MavlinkCodec()
        frames = [decoder.decode(codec.encode(Heartbeat())) for _ in range(3)]
        assert router.dispatch_all(frames, 0.0) == 3
        assert router.dispatched == 3

    def test_multiple_handlers_all_called(self):
        router = MessageRouter()
        calls = []
        router.subscribe(Heartbeat, lambda message, now: calls.append("a"))
        router.subscribe(Heartbeat, lambda message, now: calls.append("b"))
        codec = MavlinkCodec()
        router.dispatch(MavlinkCodec().decode(codec.encode(Heartbeat())), 0.0)
        assert calls == ["a", "b"]
