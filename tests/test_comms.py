"""Codec, capacity, and measurement subsampling tests.

The golden byte vectors are frozen from the wire format's definition
(little-endian header <BB3f, one byte per action index, 0xFF/0xFE plan
terminator, <3f measurement triples) and written out by hand, so they
pin the format independently of the encoder."""

import dataclasses
import math
import pickle
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobath.comms import (
    _F32_OVERFLOW,
    HEADER_BYTES,
    MAX_PACKET_BYTES,
    MEASUREMENT_BYTES,
    Packet,
    _f32,
    decode_packet,
    encode_packet,
    measurement_capacity,
    select_measurements,
)
from isobath.errors import DecodeError, EncodeError
from isobath.motion import ACTION_SET
from reference import f32_by_numpy

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


    @pytest.mark.parametrize("kw, message", [
        ({"agent_id": 256}, "agent_id must fit one byte"),
        ({"agent_id": -1}, "agent_id must fit one byte"),
        ({"plan_epoch": 300}, "plan_epoch must fit one byte"),
        ({"heading": float("inf")}, "value inf is not a finite float32"),
        ({"north": float("nan")}, "value nan is not a finite float32"),
        ({"east": 1e39}, "value 1e+39 is not a finite float32"),
        ({"actions": (11,)}, "action index 11 outside the action set"),
        ({"actions": (-1,)}, "action index -1 outside the action set"),
        ({"measurements": ((0.0, 0.0, float("inf")),)}, "value inf is not a finite float32"),
    ])
    def test_each_fault_names_itself(self, kw, message):
        base = dict(agent_id=0, plan_epoch=0, heading=0.0, north=0.0, east=0.0)
        base.update(kw)
        with pytest.raises(EncodeError, match=f"^{re.escape(message)}$"):
            Packet(**base)

    # One fault per field, in the order construction checks them.
    FAULTS = [
        ("agent_id", 256, "agent_id must fit one byte"),
        ("plan_epoch", 300, "plan_epoch must fit one byte"),
        ("heading", math.inf, "value inf is not a finite float32"),
        ("north", -math.inf, "value -inf is not a finite float32"),
        ("east", math.nan, "value nan is not a finite float32"),
        ("actions", (5, 11), "action index 11 outside the action set"),
        ("measurements", ((0.0, 0.0, 1e39),), "value 1e+39 is not a finite float32"),
    ]

    @pytest.mark.parametrize("first", range(len(FAULTS)))
    def test_a_packet_with_several_faults_raises_the_first(self, first):
        kw = dict(agent_id=0, plan_epoch=0, heading=0.0, north=0.0, east=0.0)
        for name, value, _ in self.FAULTS[first:]:
            kw[name] = value
        with pytest.raises(EncodeError, match=f"^{re.escape(self.FAULTS[first][2])}$"):
            Packet(**kw)


def _f32_outcome(fn, x):
    """``fn(x)`` as hex, sign of zero included, or the message it raised."""
    try:
        v = fn(x)
    except EncodeError as exc:
        return "EncodeError: " + str(exc)
    assert type(v) is float
    return v.hex()


def _f32_by_quiet_numpy(x) -> float:
    """``f32_by_numpy`` with numpy's overflow warning off: its guard
    compares a float32 or float16 scalar with the overflow threshold in
    the scalar's own type, where the threshold is inf, and numpy warns of
    that cast. ``_f32`` compares in double precision, so a warning from it
    fails the test."""
    with np.errstate(over="ignore"):
        return f32_by_numpy(x)


# Edges of single precision, as doubles: signed zeros, subnormal halfway
# points (to even, down and up) and their neighbours, the normal range's
# bottom, float32 max and the overflow threshold on both sides.
F32_EDGES = [
    0.0, -0.0, 2.0**-149, 2.0**-150, 3 * 2.0**-150, 5 * 2.0**-151,
    math.nextafter(2.0**-150, 0.0), math.nextafter(2.0**-150, 1.0),
    2.0**-126, 2.0**-126 - 2.0**-150, 1 + 2.0**-24, 1 + 3 * 2.0**-24,
    float(np.finfo(np.float32).max), math.nextafter(_F32_OVERFLOW, 0.0),
    _F32_OVERFLOW, math.nextafter(_F32_OVERFLOW, math.inf), 1e300,
    1.7976931348623157e308, math.inf, math.nan,
]
F32_EDGES += [-x for x in F32_EDGES] + [
    # Ints, rounded through a double as a float is; huge ones overflow.
    0, 1, -7, 2**24 + 1, 2**60 + 2**36 + 1, -(2**100 + 2**76 + 1), 2**127, 2**128,
    -(2**200), True,
    # numpy scalars.
    np.float64(0.1), np.float64(-0.0), np.float32(-2.5e-45), np.float16(0.1),
    np.float64(_F32_OVERFLOW), np.float64(math.nan), np.int32(-16777217),
    np.int64(2**53), np.uint8(255),
]


class TestFloat32Rounding:
    """``_f32`` against ``float(np.float32(x))``, the rounding it replaced."""

    @pytest.mark.parametrize("x", F32_EDGES, ids=repr)
    def test_edges_round_or_fail_as_numpy_did(self, x):
        assert _f32_outcome(_f32, x) == _f32_outcome(_f32_by_quiet_numpy, x)

    @given(st.one_of(
        st.floats(),
        st.floats(width=32),
        st.floats(min_value=3.4e38, max_value=3.41e38),
        st.floats(min_value=-1e-44, max_value=1e-44),
        st.integers(-(2**130), 2**130),
        st.integers(-(2**53), 2**53).map(np.int64),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    ))
    @settings(max_examples=1000, deadline=None)
    def test_every_value_rounds_or_fails_as_numpy_did(self, x):
        assert _f32_outcome(_f32, x) == _f32_outcome(_f32_by_quiet_numpy, x)

    @pytest.mark.parametrize("kind", [np.float32, np.float16])
    def test_a_narrow_numpy_scalar_rounds_without_a_warning(self, kind):
        # Under the test settings a RuntimeWarning is an error.
        p = Packet(0, 0, kind(0.5), kind(-2.0), kind(0.1),
                   measurements=[(kind(1.5), kind(-0.0), kind(3.0))])
        assert [p.heading, p.north, p.east] == [0.5, -2.0, float(kind(0.1))]
        assert [v.hex() for v in p.measurements[0]] == [1.5.hex(), (-0.0).hex(), 3.0.hex()]
        inf = kind(math.inf)
        with pytest.raises(EncodeError, match=f"^value {re.escape(repr(inf))} is not"):
            _f32(inf)

    def test_an_int_past_the_double_range_fails_as_numpy_did(self):
        assert _f32_outcome(_f32, 2**1100) == _f32_outcome(_f32_by_quiet_numpy, 2**1100)

    def test_a_packet_holds_the_rounded_bits(self):
        p = Packet(0, 0, -0.0, 2.0**-150, 3 * 2.0**-150,
                   measurements=[(0.1, -0.0, math.nextafter(_F32_OVERFLOW, 0.0))])
        got = [p.heading, p.north, p.east, *p.measurements[0]]
        want = [-0.0, 0.0, 2.0**-148, float(np.float32(0.1)), -0.0,
                float(np.finfo(np.float32).max)]
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestPacketConstruction:
    """The hand-written ``__init__`` behaves as the dataclass's did."""

    def test_positional_and_keyword_construction_agree_with_the_defaults(self):
        short = Packet(1, 2, 0.5, 3.0, 4.0)
        assert short == Packet(agent_id=1, plan_epoch=2, heading=0.5, north=3.0, east=4.0,
                               actions=(), lawnmower_tail=False, measurements=())
        assert (short.actions, short.lawnmower_tail, short.measurements) == ((), False, ())
        full = Packet(1, 2, 0.5, 3.0, 4.0, (5, 10), True, ((1.0, 2.0, 3.0),))
        assert full == Packet(east=4.0, north=3.0, heading=0.5, plan_epoch=2, agent_id=1,
                              measurements=((1.0, 2.0, 3.0),), lawnmower_tail=True,
                              actions=(5, 10))
        with pytest.raises(TypeError):
            Packet(1, 2, 0.5, 3.0)

    def test_fields_are_coerced_as_the_dataclass_post_init_did(self):
        p = Packet(np.int64(3), 7.0, np.float64(0.5), 0.1, 2, actions=[np.int8(5), 10.0],
                   lawnmower_tail=1, measurements=[[1, np.float64(2.5), 0.1]])
        assert type(p.agent_id) is int and type(p.plan_epoch) is int
        assert (p.agent_id, p.plan_epoch) == (3, 7)
        assert all(type(v) is float for v in (p.heading, p.north, p.east))
        assert (p.heading, p.north, p.east) == (0.5, float(np.float32(0.1)), 2.0)
        assert p.actions == (5, 10) and all(type(a) is int for a in p.actions)
        assert p.lawnmower_tail is True
        assert p.measurements == ((1.0, 2.5, float(np.float32(0.1))),)
        assert type(p.measurements[0]) is tuple
        assert all(type(v) is float for v in p.measurements[0])

    def test_fields_keep_the_dataclass_order_and_defaults(self):
        assert [(f.name, f.default) for f in dataclasses.fields(Packet)] == [
            ("agent_id", dataclasses.MISSING), ("plan_epoch", dataclasses.MISSING),
            ("heading", dataclasses.MISSING), ("north", dataclasses.MISSING),
            ("east", dataclasses.MISSING), ("actions", ()), ("lawnmower_tail", False),
            ("measurements", ()),
        ]

    def test_equality_hash_and_repr_are_the_dataclass_ones(self):
        p = Packet(1, 2, 0.5, 3, 4.0, (5,), True, ((1.0, 2.0, 3.0),))
        same = Packet(1, 2, 0.5, 3.0, 4.0, [5], 1, [(1, 2, 3)])
        assert p == same and hash(p) == hash(same)
        assert hash(p) == hash((1, 2, 0.5, 3.0, 4.0, (5,), True, ((1.0, 2.0, 3.0),)))
        assert p != dataclasses.replace(p, lawnmower_tail=False)
        assert repr(p) == (
            "Packet(agent_id=1, plan_epoch=2, heading=0.5, north=3.0, east=4.0, "
            "actions=(5,), lawnmower_tail=True, measurements=((1.0, 2.0, 3.0),))"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.north = 1.0

    def test_replace_revalidates_and_pickle_keeps_every_field(self):
        p = Packet(1, 2, 0.5, 3.0, 4.0, (5,), True, ((1.0, 2.0, 3.0),))
        moved = dataclasses.replace(p, north=0.1, measurements=[(0.2, 0.3, 0.4)])
        assert moved == Packet(1, 2, 0.5, 0.1, 4.0, (5,), True, ((0.2, 0.3, 0.4),))
        assert moved.north == float(np.float32(0.1))
        with pytest.raises(EncodeError, match="action index 11"):
            dataclasses.replace(p, actions=(11,))
        back = pickle.loads(pickle.dumps(moved))
        assert back == moved and vars(back) == vars(moved)


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
