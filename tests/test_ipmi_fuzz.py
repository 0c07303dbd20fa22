"""Arbitrary IPMI I2C passthrough frames fail only with the simulator's own errors.

``Bmc.ipmi_i2c`` takes a frame in one form: an ``int`` address byte and a
``bytes`` payload, on any bus number. The fuzz also draws the payload as a
``bytearray`` or a list of byte values, and those raise ``InvalidFrame``
and write no line. It may raise ``PmbusSimError`` and nothing else, and a
frame it delivers appends exactly one transcript line, in the
ipmitool-style form written out here from the inputs alone:
``R|W 0xAA 0xCC [DATA]``, then ``-> [REPLY]`` for an ACKed read, then the
reply status. Frames repeat within an example, so later ones come from the
shared frame cache.
"""

from hypothesis import example, given, strategies as st

from pmbus_sim import Platform
from pmbus_sim import protocol as pm
from pmbus_sim.bmc import Channel, ChannelKind
from pmbus_sim.errors import InvalidFrame, PmbusSimError

BOARDS = ("x11ssl-cf", "e3c246d4i-2t", "x12dpi-nt6")  # MPS, Intersil, filtered X12
VRM_ADDR_BYTES = tuple((a << 1) | rw for a in (0x20, 0x30, 0x34, 0x60) for rw in (0, 1))

addr_bytes = st.one_of(st.integers(-300, 600), st.sampled_from(VRM_ADDR_BYTES))
known_commands = [c for c in range(0x100) if pm.command_info(c) is not None]
commands = st.one_of(st.sampled_from(known_commands), st.integers(0, 0xFF))


@st.composite
def frame_values(draw) -> list[int]:
    """A command byte and up to 5 data bytes, often exactly as many as the command takes."""
    command = draw(commands)
    desc = pm.command_info(command)
    size = desc.data_len if desc and draw(st.booleans()) else draw(st.integers(0, 5))
    return [command, *draw(st.lists(st.integers(0, 0xFF), min_size=size, max_size=size))]


payload_values = st.one_of(st.just([]), frame_values())
payloads = st.tuples(st.sampled_from((bytes, bytearray, list)), payload_values).map(
    lambda t: t[0](t[1])
)
# Bus 2 is the BMC's route to the VRMs on every board; 0, 1 and 3 are unrouted.
frames = st.tuples(st.one_of(st.just(2), st.integers(0, 3)), addr_bytes, payloads)


def hex_bytes(data) -> str:
    return " ".join(f"{b:02X}" for b in data)


def expected_line(addr_byte: int, payload, reply) -> str:
    read = addr_byte & 1
    tag = "R" if read else "W"
    line = f"{tag} 0x{addr_byte >> 1:02X} 0x{payload[0]:02X} [{hex_bytes(payload[1:])}]"
    if read and reply.ok:
        line += f" -> [{hex_bytes(reply.data)}]"
    return f"{line} {reply.status.value}"


@given(
    name=st.sampled_from(BOARDS),
    authorized=st.booleans(),
    sent=st.lists(frames, min_size=1, max_size=4).map(lambda fs: fs + fs),
)
@example(name="x11ssl-cf", authorized=True, sent=[(2, (0x20 << 1) | 1, bytes([pm.CMD_READ_VOUT]))] * 2)
def test_ipmi_i2c_raises_only_simulator_errors(name, authorized, sent):
    platform = Platform.from_profile(name)
    channel = Channel(ChannelKind.KCS, host_root=authorized)
    transcript = platform.fabric.transcript
    for bus, addr_byte, payload in sent:
        before = len(transcript)
        try:
            reply = platform.bmc.ipmi_i2c(channel, bus, addr_byte, payload)
        except PmbusSimError as exc:
            assert len(transcript) == before
            assert type(payload) is bytes or isinstance(exc, InvalidFrame)
            continue
        assert type(payload) is bytes
        if len(transcript) > before:
            assert transcript[before:] == [expected_line(addr_byte, payload, reply)]
        else:  # unrouted, unwritable or vetoed
            assert not reply.ok
