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

_F32 = struct.Struct("<f")


def _f32(x) -> float:
    """``x`` rounded to the nearest float32, as a float; EncodeError if none is finite.

    The pack converts ``x`` to a double and casts that to single
    precision, round-half-even, as ``float(np.float32(x))`` does for a
    float, a Python int or a numpy float scalar: the same bits, sign of
    zero and subnormals included, at a fraction of numpy's per-call cost.
    (A numpy integer scalar past 2**53 is rounded twice here, to a double
    and then to single, where numpy rounds it once; no packet field is
    one.) The magnitude test comes first, on that double, so the pack
    never overflows, and NaN fails it. It compares in double precision
    whatever ``x`` is: a numpy float32 or float16 scalar would compare in
    its own type, where the threshold is inf. An int past the double
    range fails it too.
    """
    try:
        magnitude = math.fabs(x)
    except OverflowError:
        magnitude = math.inf
    if magnitude < _F32_OVERFLOW:
        return _F32.unpack(_F32.pack(x))[0]
    raise EncodeError(f"value {x!r} is not a finite float32")


@dataclass(frozen=True, init=False)
class Packet:
    """One broadcast: sender pose, short plan, and measurement triples.

    ``actions`` are indices into the action set, in execution order.
    ``lawnmower_tail`` marks that the sender's plan continues as a
    deterministic lawnmower sweep for the rest of its mission.
    ``measurements`` are (north, east, value) triples. Floats are stored
    at float32 precision.

    Construction checks agent_id, plan_epoch, heading, north, east,
    actions and then measurements, raising EncodeError at the first
    fault. Each field is set once, already coerced, through the
    instance dict, past the frozen dataclass's ``__setattr__``, as
    ``motion.AgentState`` sets its own; the coercions are those a
    ``__post_init__`` made, so the fields keep their bits, and equality,
    hash, repr, ``dataclasses.replace`` and pickling are the dataclass's.
    """

    agent_id: int
    plan_epoch: int
    heading: float
    north: float
    east: float
    actions: tuple[int, ...] = ()
    lawnmower_tail: bool = False
    measurements: tuple[tuple[float, float, float], ...] = ()

    def __init__(self, agent_id, plan_epoch, heading, north, east,
                 actions=(), lawnmower_tail=False, measurements=()):
        agent_id = int(agent_id)
        if not 0 <= agent_id <= 255:
            raise EncodeError("agent_id must fit one byte")
        plan_epoch = int(plan_epoch)
        if not 0 <= plan_epoch <= 255:
            raise EncodeError("plan_epoch must fit one byte")
        fields = self.__dict__
        fields["agent_id"] = agent_id
        fields["plan_epoch"] = plan_epoch
        fields["heading"] = _f32(heading)
        fields["north"] = _f32(north)
        fields["east"] = _f32(east)
        acts = tuple(int(a) for a in actions)
        for a in acts:
            if not 0 <= a < len(ACTION_SET):
                raise EncodeError(f"action index {a} outside the action set")
        fields["actions"] = acts
        fields["lawnmower_tail"] = bool(lawnmower_tail)
        fields["measurements"] = tuple(
            (_f32(m[0]), _f32(m[1]), _f32(m[2])) for m in measurements
        )


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

