"""Every seeded CLI invocation, pinned byte for byte: its exit code, stderr and stdout.

``tests/golden/cli.txt`` holds one section per row of ``ROWS``, in order. A
stdout longer than ``MAX_LINES`` lines (an x11 campaign's JSON) is stored as
its SHA-256 and line count; everything else is stored verbatim. A re-pin is a
correctness change, recorded in ``CHANGES.md``:

    python tests/test_cli_table.py > tests/golden/cli.txt
"""

import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

import pytest

from pmbus_sim.campaign import Chain
from pmbus_sim.cli import main
from pmbus_sim.profiles import BUILTIN_PROFILES

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
MAX_LINES = 200


def _rows() -> list[list[str]]:
    rows = [["profiles", "list"]]
    for profile in BUILTIN_PROFILES:
        p = ["--profile", profile]
        rows += [["attack", "undervolt", *p, "--chain", c.value, "--seed", "42"] for c in Chain]
        rows += [["attack", "overvolt", *p, "--chain", c.value] for c in Chain]
        rows += [["attack", "powerdown", *p, "--channel", channel] for channel in ("cpu", "bmc")]
        rows += [
            [command, *p, "--master", master, "--bus", str(bus)]
            for command in ("detect", "scan")
            for master in ("cpu", "bmc", "pcie")
            for bus in range(3)
        ]
    return rows


ROWS = _rows()


def header(argv: list[str]) -> str:
    return f"=== pmbus-sim {' '.join(argv)}\n"


def section(argv: list[str]) -> str:
    """Run ``pmbus-sim argv`` in-process and render its golden section."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue()
    lines = len(stdout.splitlines())
    if lines > MAX_LINES:
        stdout = f"sha256:{hashlib.sha256(stdout.encode()).hexdigest()} lines:{lines}\n"
    return f"{header(argv)}--- exit {code}\n--- stderr\n{err.getvalue()}--- stdout\n{stdout}"


def golden_sections() -> list[str]:
    """The golden file cut before each header line; the first piece is what precedes the first."""
    return re.split(r"(?m)^(?==== )", GOLDEN.read_bytes().decode())


def test_golden_file_lists_exactly_the_rows_in_order():
    first, *sections = golden_sections()
    assert first == ""
    assert [s[: s.index("\n") + 1] for s in sections] == [header(argv) for argv in ROWS]


@pytest.mark.parametrize(
    "argv", ROWS, ids=["-".join(a for a in argv if not a.startswith("--")) for argv in ROWS]
)
def test_cli_output(argv):
    expected = next((s for s in golden_sections() if s.startswith(header(argv))), None)
    assert section(argv) == expected


if __name__ == "__main__":
    sys.stdout.write("".join(section(argv) for argv in ROWS))
