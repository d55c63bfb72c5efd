"""Acoustic-modem packet format and measurement subsampling.

One broadcast packet fits a 252-byte payload and carries the sender's
pose and plan plus as many measurement triples as the remaining bytes
allow:

    header  <BB3f   agent id, plan epoch, heading/north/east (float32)
    plan    1 byte per action (its index in the action set)
    stop    0xFF    plan ends here
            0xFE    plan continues as a lawnmower sweep to mission end
    data    <3f     north, east, value (float32) per measurement

The plan epoch counts actions already executed, so a receiver can
reconstruct how many steps of the sender's mission remain and therefore
how long a flagged lawnmower continuation is. All floats are straight
IEEE-754 single precision: a Packet coerces its fields to float32 on
construction, so encode/decode round-trips are identities. A sender's
queue of unsent triples splits, by ``select_measurements``, into what
one packet carries and what waits for the sender's next slot.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, EncodeError
from .motion import ACTION_SET

MAX_PACKET_BYTES = 252
HEADER_FORMAT = "<BB3f"
HEADER_BYTES = struct.calcsize(HEADER_FORMAT)  # 14
MEASUREMENT_FORMAT = "<3f"
MEASUREMENT_BYTES = struct.calcsize(MEASUREMENT_FORMAT)  # 12
END_OF_PLAN = 0xFF
LAWNMOWER_CONTINUATION = 0xFE


# The least magnitude that rounds to infinity in single precision:
# halfway between its largest finite value and 2**128.
_F32_OVERFLOW = 2.0**128 - 2.0**103


def _f32(x) -> float:
    # Tested before the cast, which would warn of the overflow it returns.
    v = float(np.float32(x)) if abs(x) < _F32_OVERFLOW else math.inf
    if not math.isfinite(v):
        raise EncodeError(f"value {x!r} is not a finite float32")
    return v


@dataclass(frozen=True)
class Packet:
    """One broadcast: sender pose, short plan, and measurement triples.

    ``actions`` are indices into the action set, in execution order.
    ``lawnmower_tail`` marks that the sender's plan continues as a
    deterministic lawnmower sweep for the rest of its mission.
    ``measurements`` are (north, east, value) triples. Floats are stored
    at float32 precision.
    """

    agent_id: int
    plan_epoch: int
    heading: float
    north: float
    east: float
    actions: tuple[int, ...] = ()
    lawnmower_tail: bool = False
    measurements: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if not 0 <= int(self.agent_id) <= 255:
            raise EncodeError("agent_id must fit one byte")
        if not 0 <= int(self.plan_epoch) <= 255:
            raise EncodeError("plan_epoch must fit one byte")
        object.__setattr__(self, "agent_id", int(self.agent_id))
        object.__setattr__(self, "plan_epoch", int(self.plan_epoch))
        for name in ("heading", "north", "east"):
            object.__setattr__(self, name, _f32(getattr(self, name)))
        acts = tuple(int(a) for a in self.actions)
        for a in acts:
            if not 0 <= a < len(ACTION_SET):
                raise EncodeError(f"action index {a} outside the action set")
        object.__setattr__(self, "actions", acts)
        object.__setattr__(self, "lawnmower_tail", bool(self.lawnmower_tail))
        meas = tuple(
            (_f32(m[0]), _f32(m[1]), _f32(m[2])) for m in self.measurements
        )
        object.__setattr__(self, "measurements", meas)


def measurement_capacity(n_actions: int) -> int:
    """Measurement triples that fit alongside a plan of n_actions."""
    if n_actions < 0:
        raise ValueError("n_actions must be non-negative")
    free = MAX_PACKET_BYTES - HEADER_BYTES - n_actions - 1
    if free < 0:
        raise EncodeError(f"a {n_actions}-action plan exceeds the packet size")
    return free // MEASUREMENT_BYTES


def encode_packet(packet: Packet) -> bytes:
    """Serialize a packet; raises EncodeError if it cannot fit."""
    if len(packet.measurements) > measurement_capacity(len(packet.actions)):
        raise EncodeError(
            f"{len(packet.measurements)} measurements with "
            f"{len(packet.actions)} actions exceed the packet size"
        )
    out = bytearray(
        struct.pack(
            HEADER_FORMAT,
            packet.agent_id,
            packet.plan_epoch,
            packet.heading,
            packet.north,
            packet.east,
        )
    )
    out.extend(packet.actions)
    out.append(LAWNMOWER_CONTINUATION if packet.lawnmower_tail else END_OF_PLAN)
    for triple in packet.measurements:
        out.extend(struct.pack(MEASUREMENT_FORMAT, *triple))
    return bytes(out)


def decode_packet(raw: bytes) -> Packet:
    """Parse a packet, validating structure and float finiteness.

    Raises DecodeError naming the byte offset of the first problem.
    """
    if len(raw) > MAX_PACKET_BYTES:
        raise DecodeError(f"packet of {len(raw)} bytes exceeds the limit", offset=0)
    if len(raw) < HEADER_BYTES + 1:
        raise DecodeError("packet shorter than header plus terminator", offset=len(raw))
    agent_id, plan_epoch, heading, north, east = struct.unpack_from(HEADER_FORMAT, raw)
    for off, name, v in ((2, "heading", heading), (6, "north", north), (10, "east", east)):
        if not math.isfinite(v):
            raise DecodeError(f"non-finite {name}", offset=off)
    pos = HEADER_BYTES
    actions: list[int] = []
    tail = None
    while pos < len(raw):
        b = raw[pos]
        if b in (END_OF_PLAN, LAWNMOWER_CONTINUATION):
            tail = b == LAWNMOWER_CONTINUATION
            pos += 1
            break
        if b >= len(ACTION_SET):
            raise DecodeError(f"invalid action byte 0x{b:02x}", offset=pos)
        actions.append(b)
        pos += 1
    if tail is None:
        raise DecodeError("plan terminator missing", offset=len(raw))
    rest = len(raw) - pos
    if rest % MEASUREMENT_BYTES:
        raise DecodeError(
            f"{rest} trailing bytes are not whole measurement triples", offset=pos
        )
    measurements = []
    for _ in range(rest // MEASUREMENT_BYTES):
        triple = struct.unpack_from(MEASUREMENT_FORMAT, raw, pos)
        for j, v in enumerate(triple):
            if not math.isfinite(v):
                raise DecodeError("non-finite measurement value", offset=pos + 4 * j)
        measurements.append(triple)
        pos += MEASUREMENT_BYTES
    return Packet(
        agent_id=agent_id,
        plan_epoch=plan_epoch,
        heading=heading,
        north=north,
        east=east,
        actions=tuple(actions),
        lawnmower_tail=tail,
        measurements=tuple(measurements),
    )


def select_measurements(queue, capacity: int):
    """Split ``queue`` into what one packet sends and the rest, as two lists.

    Sends an evenly strided subset of at most ``capacity``, indices 0, n,
    2n, ... with n = ceil(len/capacity), in order: under a tight byte
    budget it spans the whole queue rather than truncating it.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    rest = list(queue)
    if capacity == 0 or not rest:
        return [], rest
    stride = math.ceil(len(rest) / capacity)
    sent = rest[::stride]
    del rest[::stride]
    return sent, rest

