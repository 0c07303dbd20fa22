"""Replay transcript lines fail only with ``InvalidTranscript``, and every transaction's
line parses back to it.

``cli.parse_transaction_text`` reads the lines ``filter simulate --replay`` takes.
Arbitrary text, and text shaped like a transcript line with arbitrary fields,
yields a ``Transaction`` or raises ``InvalidTranscript``; any other exception,
the simulator's own included, is an escape.
"""

from hypothesis import assume, example, given, strategies as st

from pmbus_sim import protocol as pm
from pmbus_sim.cli import parse_transaction_text
from pmbus_sim.errors import InvalidTranscript, PmbusSimError
from pmbus_sim.protocol import Direction, Transaction

HEX = "0123456789abcdefABCDEF"
hex_digits = st.text(HEX, min_size=1, max_size=3)
byte_fields = st.one_of(st.text(HEX, min_size=2, max_size=2), hex_digits)  # mostly two digits
WHITESPACE = " \t\x0b\x0c\x1c\x85\u3000"  # str.split() and the regex's \s agree on these
spaces = st.text(WHITESPACE, max_size=2)


@st.composite
def shaped_lines(draw) -> str:
    """`R|W 0xAA 0xCC [DATA]` with fields of any width, odd spacing and trailing junk."""
    tokens = draw(st.lists(byte_fields, max_size=6))
    data = draw(st.text(WHITESPACE, min_size=1, max_size=2)).join(tokens)
    return (
        f"{draw(spaces)}{draw(st.sampled_from('RWX'))} 0x{draw(byte_fields)}{draw(spaces)} "
        f"0x{draw(byte_fields)} [{draw(spaces)}{data}{draw(spaces)}]{draw(st.text(max_size=4))}"
    )


@st.composite
def transactions(draw) -> Transaction:
    """Valid transactions; writes often carry exactly the data their command takes."""
    command = draw(st.integers(0, 0xFF))
    desc = pm.command_info(command)
    size = desc.data_len if desc and draw(st.booleans()) else draw(st.integers(0, 4))
    try:
        return Transaction(
            draw(st.integers(pm.ADDR_MIN, pm.ADDR_MAX)),
            draw(st.sampled_from(Direction)),
            command,
            draw(st.binary(min_size=size, max_size=size)),
        )
    except PmbusSimError:
        assume(False)


@given(line=st.one_of(st.text(), shaped_lines()))
@example(line="W 0x20 0x21 [6E 100]")  # a data token past a byte
@example(line="W 0x20 0x21 [6E 00 00]")  # more data than the command takes
@example(line="R 0x78 0x8B []")  # an address past 0x77
def test_replay_lines_raise_only_invalid_transcript(line):
    try:
        t = parse_transaction_text(line)
    except InvalidTranscript:
        return
    assert isinstance(t, Transaction)


@given(t=transactions())
def test_transaction_line_round_trips(t):
    assert parse_transaction_text(t.line) == t
