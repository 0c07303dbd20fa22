"""VRM discovery: probe every bus address, classify vendor, confirm, report.

The probe order per address: READ_TEMPERATURE as the presence indicator,
vendor classification via ISL_DEVICE_ID (Intersil) falling back to
SVID_VENDOR_PRODUCT_ID (MPS), an MFR_ADDR_PMBUS echo check for MPS parts,
then a page-saving VOUT sweep over pages 0 and 1 with the original page
restored unconditionally. A page write the VRM does not ACK is logged as
refused, and VOUT is read only on the page the VRM is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import protocol as pm
from .fabric import Fabric
from .protocol import ADDR_MAX, ADDR_MIN, CODEC_5MV, Direction, Transaction

PLAUSIBLE_MV = (550, 1520)
_PAGES = (0, 1)
_OUTCOME = {True: "success", False: "refused"}  # a page write, by whether it was ACKed


@dataclass
class VrmCandidate:
    address: int
    temperature_raw: int
    vendor: str  # "MPS" | "Intersil" | "Unknown"
    vendor_data: int | None
    vout_by_page: dict[int, int]
    plausible: bool
    confirmed: bool


@dataclass
class DetectionReport:
    bus: int
    candidates: list[VrmCandidate] = field(default_factory=list)
    transcript: list[str] = field(default_factory=list)


def _read(fabric: Fabric, master: str, bus: int, address: int, command: int):
    reply = fabric.master_transfer(master, bus, Transaction(address, Direction.READ, command))
    if not reply.ok:
        return None
    return int.from_bytes(reply.data, "little")


def _write_page(fabric: Fabric, master: str, bus: int, address: int, page: int) -> bool:
    """True if the device ACKed the PAGE write."""
    t = Transaction(address, Direction.WRITE, pm.CMD_PAGE, bytes([page]))
    return fabric.master_transfer(master, bus, t).ok


def detect(fabric: Fabric, bus: int, master: str = "cpu") -> DetectionReport:
    report = DetectionReport(bus=bus)
    log = report.transcript.append
    for address in range(ADDR_MIN, ADDR_MAX + 1):
        temperature = _read(fabric, master, bus, address, pm.CMD_READ_TEMPERATURE)
        if temperature is None:
            continue
        log(f"Device 0x{address:02X}              READ_TEMPERATURE success: {temperature:04X}")
        log(f"!!!!!!!!!!! Detected! Device addr: {address:02x} !!!!!!!!!!!")

        vendor = "Unknown"
        vendor_data = None
        confirmed = False
        isl_id = _read(fabric, master, bus, address, pm.CMD_ISL_DEVICE_ID)
        if isl_id is not None:
            vendor, vendor_data = "Intersil", isl_id
            confirmed = True
            log(f"Device 0x{address:02X}              ISL_DEVICE_ID success, data: {isl_id:X}")
            log("This device is likely to be a Intersil VRM")
        else:
            product_id = _read(fabric, master, bus, address, pm.CMD_SVID_VENDOR_PRODUCT_ID)
            if product_id is not None:
                vendor, vendor_data = "MPS", product_id
                log(
                    f"Device 0x{address:02X}              "
                    f"SVID_VENDOR_PRODUCT_ID success, data: {product_id:04X}"
                )
                log("This device is likely to be a MPS VRM")
                echoed = _read(fabric, master, bus, address, pm.CMD_MFR_ADDR_PMBUS)
                confirmed = echoed == address

        original_page = _read(fabric, master, bus, address, pm.CMD_PAGE)
        if original_page is None:
            original_page = 0
        log(f"Device 0x{address:02X} : {original_page:02X}         READ_PAGE success  # Save the page")

        vout_by_page: dict[int, int] = {}
        current_page = original_page
        for page in _PAGES:
            log("")
            log(f"Page: {page:02X}")
            written = _write_page(fabric, master, bus, address, page)
            log(f"Device 0x{address:02X} : {page:02X}         WRITE_PAGE {_OUTCOME[written]}")
            if written:
                current_page = page
            if current_page != page:  # the VRM stayed on another page
                continue
            vout = _read(fabric, master, bus, address, pm.CMD_READ_VOUT)
            if vout is not None:
                vout_by_page[page] = vout
                log(f"Device 0x{address:02X} : {page:02X}         READ_VOUT success: {vout:04X}")
        restored = _write_page(fabric, master, bus, address, original_page)
        log(
            f"Device 0x{address:02X} : {original_page:02X}         "
            f"WRITE_PAGE {_OUTCOME[restored]} # Restore the page"
        )

        rail_vout = vout_by_page.get(original_page, 0)
        voltage = CODEC_5MV.voltage(rail_vout & 0xFF)
        plausible = PLAUSIBLE_MV[0] <= voltage <= PLAUSIBLE_MV[1]

        report.candidates.append(
            VrmCandidate(
                address=address,
                temperature_raw=temperature,
                vendor=vendor,
                vendor_data=vendor_data,
                vout_by_page=vout_by_page,
                plausible=plausible,
                confirmed=confirmed,
            )
        )
    return report


def render_report(report: DetectionReport) -> str:
    if not report.candidates:
        return f"no VRM detected on bus {report.bus}\n"
    return "\n".join(report.transcript) + "\n"
