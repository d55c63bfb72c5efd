"""Codec, capacity, and measurement subsampling tests.

The golden byte vectors are frozen from the wire format's definition
(little-endian header <BB3f, one byte per action index, 0xFF/0xFE plan
terminator, <3f measurement triples) and written out by hand, so they
pin the format independently of the encoder."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobath.comms import (
    HEADER_BYTES,
    MAX_PACKET_BYTES,
    MEASUREMENT_BYTES,
    Packet,
    decode_packet,
    encode_packet,
    measurement_capacity,
    select_measurements,
)
from isobath.errors import DecodeError, EncodeError
from isobath.motion import ACTION_SET

GOLDEN_EMPTY = bytes.fromhex("0102000000000000000000000000ff")
GOLDEN_FULL = bytes.fromhex(
    "03070000c03f004016430000f441050a00fe0000803f0000004000006040"
)


class TestGoldenVectors:
    def test_minimal_packet_is_fifteen_bytes(self):
        p = Packet(agent_id=1, plan_epoch=2, heading=0.0, north=0.0, east=0.0)
        raw = encode_packet(p)
        assert raw == GOLDEN_EMPTY
        assert len(raw) == HEADER_BYTES + 1 == 15

    def test_actions_tail_and_measurement_layout(self):
        p = Packet(agent_id=3, plan_epoch=7, heading=1.5, north=150.25,
                   east=30.5, actions=(5, 10, 0), lawnmower_tail=True,
                   measurements=((1.0, 2.0, 3.5),))
        assert encode_packet(p) == GOLDEN_FULL

    def test_golden_vectors_decode_back(self):
        p = decode_packet(GOLDEN_FULL)
        assert p.agent_id == 3 and p.plan_epoch == 7
        assert p.actions == (5, 10, 0)
        assert p.lawnmower_tail
        assert p.measurements == ((1.0, 2.0, 3.5),)
        assert p.heading == 1.5 and p.north == 150.25 and p.east == 30.5


class TestCapacity:
    def test_reference_values(self):
        # (252 - 14 - n - 1) // 12
        assert measurement_capacity(0) == 19
        assert measurement_capacity(3) == 19
        assert measurement_capacity(10) == 18
        assert measurement_capacity(237) == 0

    def test_rejects_impossible_plans(self):
        with pytest.raises(ValueError):
            measurement_capacity(-1)
        with pytest.raises(EncodeError):
            measurement_capacity(238)

    def test_three_action_eighteen_measurement_anchor(self):
        p = Packet(agent_id=0, plan_epoch=0, heading=0.0, north=0.0, east=0.0,
                   actions=(5, 5, 5), lawnmower_tail=True,
                   measurements=tuple((float(i), 0.0, 10.0) for i in range(18)))
        assert len(encode_packet(p)) == 234

    def test_overfull_packet_refused(self):
        with pytest.raises(EncodeError):
            encode_packet(Packet(
                agent_id=0, plan_epoch=0, heading=0.0, north=0.0, east=0.0,
                actions=(5,) * 10,
                measurements=tuple((0.0, 0.0, 0.0) for _ in range(19)),
            ))


finite_f32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def packets(draw):
    n_actions = draw(st.integers(0, 20))
    cap = measurement_capacity(n_actions)
    n_meas = draw(st.integers(0, cap))
    return Packet(
        agent_id=draw(st.integers(0, 255)),
        plan_epoch=draw(st.integers(0, 255)),
        heading=draw(finite_f32),
        north=draw(finite_f32),
        east=draw(finite_f32),
        actions=tuple(draw(st.lists(
            st.integers(0, len(ACTION_SET) - 1),
            min_size=n_actions, max_size=n_actions))),
        lawnmower_tail=draw(st.booleans()),
        measurements=tuple(
            (draw(finite_f32), draw(finite_f32), draw(finite_f32))
            for _ in range(n_meas)
        ),
    )


class TestRoundTrip:
    @given(packets())
    @settings(max_examples=300, deadline=None)
    def test_decode_inverts_encode(self, p):
        raw = encode_packet(p)
        assert len(raw) <= MAX_PACKET_BYTES
        assert decode_packet(raw) == p

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_panic(self, raw):
        try:
            p = decode_packet(raw)
        except DecodeError:
            return
        # Anything that parses must re-encode to the same bytes.
        assert encode_packet(p) == raw


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"agent_id": 256}, {"agent_id": -1}, {"plan_epoch": 300},
        {"heading": float("inf")}, {"north": float("nan")},
        {"actions": (11,)}, {"actions": (-1,)},
        {"measurements": ((0.0, 0.0, float("inf")),)},
    ])
    def test_bad_fields_raise_encode_error(self, kw):
        base = dict(agent_id=0, plan_epoch=0, heading=0.0, north=0.0, east=0.0)
        base.update(kw)
        with pytest.raises(EncodeError):
            Packet(**base)


def header(agent=0, epoch=0, heading=0.0, north=0.0, east=0.0):
    return struct.pack("<BB3f", agent, epoch, heading, north, east)


class TestDecodeErrorOffsets:
    def offset_of(self, raw):
        with pytest.raises(DecodeError) as info:
            decode_packet(raw)
        return info.value.offset

    def test_oversize_reported_at_start(self):
        assert self.offset_of(bytes(253)) == 0

    def test_truncated_header(self):
        assert self.offset_of(bytes(14)) == 14

    @pytest.mark.parametrize("field,offset", [
        ("heading", 2), ("north", 6), ("east", 10),
    ])
    def test_nonfinite_header_floats(self, field, offset):
        kw = {field: float("inf")}
        raw = header(**kw) + b"\xff"
        assert self.offset_of(raw) == offset

    def test_invalid_action_byte(self):
        raw = header() + bytes([0x20]) + b"\xff"
        assert self.offset_of(raw) == HEADER_BYTES

    def test_missing_terminator(self):
        raw = header() + bytes([5, 5])
        assert self.offset_of(raw) == len(raw)

    def test_ragged_measurement_bytes(self):
        raw = header() + b"\xff" + bytes(5)
        assert self.offset_of(raw) == HEADER_BYTES + 1

    def test_nonfinite_measurement(self):
        bad = struct.pack("<3f", 0.0, float("inf"), 0.0)
        raw = header() + b"\xff" + bad
        assert self.offset_of(raw) == HEADER_BYTES + 1 + 4


class TestSelectMeasurements:
    def test_under_capacity_is_identity(self):
        items = list(range(7))
        assert select_measurements(items, 19) == (items, [])

    def test_tight_budget_spans_the_queue(self):
        items = list(range(40))
        out, rest = select_measurements(items, 19)
        assert out[0] == 0
        assert out == items[::3]  # ceil(40/19) == 3
        assert len(out) <= 19
        assert rest == [i for i in items if i % 3]

    def test_zero_capacity_or_empty(self):
        assert select_measurements(range(5), 0) == ([], [0, 1, 2, 3, 4])
        assert select_measurements([], 10) == ([], [])
        with pytest.raises(ValueError):
            select_measurements(range(5), -1)

    @given(st.integers(0, 400), st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_count_bounded_and_order_kept(self, n, cap):
        out, rest = select_measurements(range(n), cap)
        assert len(out) <= cap
        assert out == sorted(out) and rest == sorted(rest)
        assert sorted(out + rest) == list(range(n))
        if n:
            assert out[0] == 0
