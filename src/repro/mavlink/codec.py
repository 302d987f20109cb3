"""Framing codec for the MAVLink-like protocol.

Frame layout (little-endian)::

    offset  size  field
    0       1     magic (0xFD)
    1       1     payload length
    2       1     sequence number
    3       1     system id
    4       1     component id
    5       1     message id (low byte)
    6       2     message id (high bytes, little-endian)
    8       n     payload
    8+n     2     CRC-16/CCITT over bytes 1..8+n-1

The 8-byte header plus 2-byte CRC reproduce the 10 bytes of framing overhead
assumed by the Table I payload sizes (see :mod:`repro.mavlink.messages`).
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass

from .messages import MavlinkMessage, message_class_for_id

__all__ = ["MAGIC", "Frame", "MavlinkCodec", "DecodeError", "crc16"]

MAGIC = 0xFD
HEADER_LENGTH = 8
CRC_LENGTH = 2


class DecodeError(ValueError):
    """Raised when a datagram cannot be decoded as a valid frame."""


def crc16(data: bytes, seed: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE used to protect the frame.

    Polynomial 0x1021, MSB first, no reflection, no final XOR; ``seed`` is
    the initial register (0xFFFF for CCITT-FALSE).  ``binascii.crc_hqx``
    computes exactly this CRC in C.
    """
    return binascii.crc_hqx(data, seed)


@dataclass(frozen=True)
class Frame:
    """A decoded frame: addressing metadata plus the parsed message."""

    sequence: int
    system_id: int
    component_id: int
    message: MavlinkMessage


class MavlinkCodec:
    """Stateful encoder/decoder: tracks the outgoing sequence number."""

    def __init__(self, system_id: int = 1, component_id: int = 1) -> None:
        self.system_id = int(system_id)
        self.component_id = int(component_id)
        self._sequence = 0
        self.decode_errors = 0

    def encode(self, message: MavlinkMessage) -> bytes:
        """Serialise ``message`` into a framed datagram."""
        payload = message.pack()
        if len(payload) > 255:
            raise ValueError("payload too large for a single frame")
        header = struct.pack(
            "<BBBBBBH",
            MAGIC,
            len(payload),
            self._sequence & 0xFF,
            self.system_id,
            self.component_id,
            message.MSG_ID & 0xFF,
            (message.MSG_ID >> 8) & 0xFFFF,
        )
        self._sequence = (self._sequence + 1) & 0xFF
        body = header + payload
        checksum = crc16(body[1:])
        return body + struct.pack("<H", checksum)

    def frame_size(self, message: MavlinkMessage) -> int:
        """Size in bytes of the frame that would carry ``message``."""
        return HEADER_LENGTH + len(message.pack()) + CRC_LENGTH

    def decode(self, datagram: bytes) -> Frame:
        """Parse one framed datagram.

        Raises
        ------
        DecodeError
            On truncated data, bad magic, bad CRC or an unknown message id.
            Malformed flood packets sent by the UDP DoS attacker end up here.
        """
        try:
            if len(datagram) < HEADER_LENGTH + CRC_LENGTH:
                raise DecodeError("datagram shorter than minimum frame")
            magic, length, sequence, system_id, component_id, msg_id_low, msg_id_high = (
                struct.unpack("<BBBBBBH", datagram[:HEADER_LENGTH])
            )
            if magic != MAGIC:
                raise DecodeError(f"bad magic byte 0x{magic:02x}")
            expected_size = HEADER_LENGTH + length + CRC_LENGTH
            if len(datagram) != expected_size:
                raise DecodeError("frame length mismatch")
            payload = datagram[HEADER_LENGTH:HEADER_LENGTH + length]
            (received_crc,) = struct.unpack("<H", datagram[-CRC_LENGTH:])
            if crc16(datagram[1:-CRC_LENGTH]) != received_crc:
                raise DecodeError("CRC mismatch")
            msg_id = msg_id_low | (msg_id_high << 8)
            try:
                message_cls = message_class_for_id(msg_id)
            except KeyError as exc:
                raise DecodeError(f"unknown message id {msg_id}") from exc
            message = message_cls.unpack(payload)
        except DecodeError:
            self.decode_errors += 1
            raise
        except struct.error as exc:
            self.decode_errors += 1
            raise DecodeError(str(exc)) from exc
        return Frame(
            sequence=sequence,
            system_id=system_id,
            component_id=component_id,
            message=message,
        )
