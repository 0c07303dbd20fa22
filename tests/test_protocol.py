"""Frame codec, VID table and transaction validation properties."""

import pytest
from hypothesis import given, strategies as st

from pmbus_sim import protocol as pm
from pmbus_sim.errors import InvalidAddress, InvalidFrame, OutOfRange, TruncatedFrame
from pmbus_sim.protocol import Direction, Transaction, VidCodec, decode_frame, encode_frame

addresses = st.integers(pm.ADDR_MIN, pm.ADDR_MAX)
known_commands = st.sampled_from([c for c in range(0x100) if pm.command_info(c) is not None])
unknown_commands = st.integers(0, 0xFF).filter(lambda c: pm.command_info(c) is None)


@st.composite
def transactions(draw):
    address = draw(addresses)
    if draw(st.booleans()):
        code = draw(known_commands)
        desc = pm.command_info(code)
        if draw(st.booleans()):
            payload = draw(st.binary(min_size=desc.data_len, max_size=desc.data_len))
            return Transaction(address, Direction.WRITE, code, payload)
        return Transaction(address, Direction.READ, code, draw(st.binary(max_size=4)))
    code = draw(unknown_commands)
    return Transaction(address, draw(st.sampled_from(Direction)), code, draw(st.binary(max_size=4)))


@given(transactions())
def test_frame_roundtrip(t):
    assert decode_frame(encode_frame(t)) == t


@given(transactions())
def test_decode_is_the_bmc_frame_decoder(t):
    frame = encode_frame(t)
    assert decode_frame(frame) is pm.ipmi_frame(frame[0], frame[1:])


@given(transactions())
def test_address_byte_law(t):
    frame = encode_frame(t)
    assert frame[0] == (t.address << 1) | (0 if t.is_write else 1)
    assert frame[1] == t.command


def test_write_to_0x20_begins_0x40():
    t = Transaction(0x20, Direction.WRITE, pm.CMD_VOUT_COMMAND, b"\x6e\x00")
    assert encode_frame(t)[0] == 0x40


def test_truncated_frames_rejected():
    for blob in (b"", b"\x40"):
        with pytest.raises(TruncatedFrame):
            decode_frame(blob)


@pytest.mark.parametrize("address", [0x00, 0x07, 0x78, 0x7F])
def test_reserved_addresses_rejected(address):
    with pytest.raises(InvalidAddress):
        Transaction(address, Direction.READ, 0x00)


def test_write_payload_length_checked():
    with pytest.raises(ValueError):
        Transaction(0x20, Direction.WRITE, pm.CMD_VOUT_COMMAND, b"\x6e")
    for command, payload in ((pm.CMD_VOUT_COMMAND, b"\x6e"), (0x99, bytes(5)), (0x100, b"")):
        with pytest.raises(InvalidFrame):
            Transaction(0x20, Direction.WRITE, command, payload)


@pytest.mark.parametrize("payload", [2, "ab", [0x6E, 0], {2}, bytearray(b"\x6e\x00")])
def test_transaction_payload_is_bytes_only(payload):
    with pytest.raises(InvalidFrame):
        Transaction(0x20, Direction.WRITE, pm.CMD_VOUT_COMMAND, payload)


@pytest.mark.parametrize("data", [5, "@!", [0x40, 0x01, 0x02], bytearray(b"\x40\x01\x02")])
def test_decode_frame_takes_bytes_only(data):
    with pytest.raises(InvalidFrame):
        decode_frame(data)


def test_transaction_text_form():
    t = Transaction(0x20, Direction.WRITE, 0x21, b"\x6e\x00")
    assert t.text() == "W 0x20 0x21 [6E 00]"


@given(transactions())
def test_text_is_the_transcript_form(t):
    data = " ".join(f"{b:02X}" for b in t.payload)
    tag = "W" if t.direction is Direction.WRITE else "R"
    assert t.text() == t.line == f"{tag} 0x{t.address:02X} 0x{t.command:02X} [{data}]"


@given(transactions())
def test_rendered_line_leaves_eq_hash_and_repr_alone(t):
    fresh = Transaction(t.address, t.direction, t.command, t.payload)
    before = repr(t)
    t.text()
    assert repr(t) == before == repr(fresh)
    assert t == fresh and hash(t) == hash(fresh)


# -- interned IPMI frames ----------------------------------------------------------


def test_equal_frames_share_one_transaction():
    t = pm.ipmi_frame(0x40, bytes([pm.CMD_VOUT_COMMAND, 0x6E, 0x00]))
    assert t == Transaction(0x20, Direction.WRITE, pm.CMD_VOUT_COMMAND, b"\x6e\x00")
    assert pm.ipmi_frame(0x40, bytes([pm.CMD_VOUT_COMMAND, 0x6E, 0x00])) is t
    read = pm.ipmi_frame(0x41, bytes([pm.CMD_READ_VOUT]))
    assert read == Transaction(0x20, Direction.READ, pm.CMD_READ_VOUT)


@given(addresses, st.binary(min_size=2, max_size=2), st.binary(min_size=2, max_size=2))
def test_different_payloads_make_different_frames(address, a, b):
    frames = [pm.ipmi_frame(address << 1, bytes([pm.CMD_VOUT_COMMAND]) + data) for data in (a, b)]
    assert [f.payload for f in frames] == [a, b]
    assert (frames[0] is frames[1]) == (a == b)


@pytest.mark.parametrize(
    "addr_byte, data, error",
    [
        (0x00, bytes([pm.CMD_OPERATION, 0]), InvalidAddress),
        (0x40, bytes([pm.CMD_VOUT_COMMAND, 0x6E]), InvalidFrame),
        (0x40, bytes([0x99, 1, 2, 3, 4, 5]), InvalidFrame),
    ],
)
def test_malformed_frame_raises_on_every_call(addr_byte, data, error):
    for _ in range(3):
        with pytest.raises(error):
            pm.ipmi_frame(addr_byte, data)


# -- VID table ---------------------------------------------------------------------


def test_vid_table_anchors():
    assert VidCodec(step_mv=5).voltage(0) == 0
    assert VidCodec(step_mv=5).voltage(1) == 300
    assert VidCodec(step_mv=5).voltage(0xD8) == 1375
    assert VidCodec(step_mv=10).voltage(0xFF) == 2840
    assert VidCodec(step_mv=5).vid_for(845) == 0x6E


def test_step_doubling():
    five, ten = VidCodec(step_mv=5), VidCodec(step_mv=10)
    for vid in range(1, 0x100):
        assert ten.voltage(vid) - 300 == 2 * (five.voltage(vid) - 300)


@given(st.integers(0, 0xFF), st.sampled_from([5, 10]))
def test_vid_roundtrip_exact(vid, step):
    codec = VidCodec(step_mv=step)
    assert codec.vid_for(codec.voltage(vid)) == vid


@given(st.integers(0, 2840), st.sampled_from([5, 10]))
def test_vid_for_is_nearest(mv, step):
    codec = VidCodec(step_mv=step)
    if mv > codec.voltage(0xFF):
        return
    vid = codec.vid_for(mv)
    err = abs(codec.voltage(vid) - mv)
    for other in {max(vid - 1, 0), min(vid + 1, 0xFF)}:
        other_err = abs(codec.voltage(other) - mv)
        assert err < other_err or (err == other_err and vid <= other)


def test_ties_round_to_lower_vid():
    codec = VidCodec(step_mv=10)
    # 305 mV is equidistant between VID 1 (300) and VID 2 (310).
    assert codec.vid_for(305) == 1
    # 150 mV is equidistant between off (0) and VID 1 (300).
    assert codec.vid_for(150) == 0


def test_vid_out_of_range():
    with pytest.raises(OutOfRange):
        VidCodec(step_mv=5).voltage(0x100)
    with pytest.raises(OutOfRange):
        VidCodec(step_mv=5).vid_for(5000)
