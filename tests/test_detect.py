"""Regulator discovery: golden transcript, classification, side-effect freedom."""

from pathlib import Path

from pmbus_sim import Platform
from pmbus_sim.detect import detect, render_report

GOLDEN = Path(__file__).parent / "golden" / "detect_x11_bus1.txt"


def test_golden_transcript(x11):
    report = detect(x11.fabric, 1)
    assert render_report(report) == GOLDEN.read_text()


def test_candidate_fields(x11):
    report = detect(x11.fabric, 1)
    assert len(report.candidates) == 1
    c = report.candidates[0]
    assert c.address == 0x20
    assert c.temperature_raw == 0x0019
    assert c.vendor == "MPS" and c.vendor_data == 0x2555
    assert c.vout_by_page == {0: 0x00D8, 1: 0x0001}
    assert c.plausible and c.confirmed


def test_detect_is_non_destructive(x11):
    before = x11.fabric.state_fingerprint()
    detect(x11.fabric, 1)
    assert x11.fabric.state_fingerprint() == before


def test_detect_is_deterministic(x11):
    assert render_report(detect(x11.fabric, 1)) == render_report(detect(x11.fabric, 1))


def test_empty_bus_report(x11):
    assert render_report(detect(x11.fabric, 0)) == "no VRM detected on bus 0\n"


def test_intersil_classification(asrock):
    report = detect(asrock.fabric, 2, master="cpu")
    c = report.candidates[0]
    assert c.address == 0x60
    assert c.vendor == "Intersil" and c.confirmed
    assert "Intersil VRM" in render_report(report)


def test_detect_restores_original_page(asrock):
    vrm = asrock.vrms[(2, 0x60)]
    original = vrm.page
    detect(asrock.fabric, 2, master="cpu")
    assert vrm.page == original


def test_refused_page_writes_are_reported_and_read_no_other_page(asrock):
    """The BMC may not write the Intersil VRM: each page write says so, and a
    reading is kept only for the page the VRM was on when it was taken."""
    vrm = asrock.vrms[(2, 0x60)]
    by_cpu = detect(asrock.fabric, 2, master="cpu").candidates[0].vout_by_page
    before = len(asrock.fabric.transcript)
    report = detect(asrock.fabric, 2, master="bmc")
    text = render_report(report)
    assert "WRITE_PAGE success" not in text
    assert text.count("WRITE_PAGE refused") == 3  # pages 0 and 1, then the restore
    assert not any(line.startswith("W ") for line in asrock.fabric.transcript[before:])
    assert report.candidates[0].vout_by_page == {vrm.page: by_cpu[vrm.page]}
