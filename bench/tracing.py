"""Spans and counters around pmbus_sim's public entry points, recorded from outside.

``install`` replaces each traced function or method with a wrapper that
records one span (name, start, end, parent span, op index). A function is
replaced under every name a pmbus_sim module binds it to, because callers use
the name they imported: ``campaign`` calls its own ``lenstra_recover``,
``parse_package``, ``enable_root_shell`` and ``repack``, and the package
rebinds ``pmbus_sim.detect`` from the submodule to the function.

Spans stay in memory, in flat arrays, until ``write_spans`` writes them out
once the traced phase has ended. A span's self time is its duration minus
the durations of its direct children; the program is single-threaded, so
children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from pmbus_sim import campaign, crypto, firmware, profiles
from pmbus_sim.bmc import Bmc
from pmbus_sim.cpu import Cpu, FaultySignature
from pmbus_sim.crypto import CrtRsaKey
from pmbus_sim.fabric import Fabric
from pmbus_sim.filterguard import BusFilter
from pmbus_sim.machine import Platform
from pmbus_sim.protocol import Transaction
from pmbus_sim.vrm import VrmDevice

detect_mod = sys.modules["pmbus_sim.detect"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._open: list[int] = []
        # Outcome counts per op index, recorded where each call returns.
        self.counts: dict[int, Counter] = {}
        self.op = -1

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span per call; `count(args, result)` names an outcome."""
        name_id = len(self.names)
        self.names.append(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, open_spans = self.span_start, self.span_end, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ops.append(self.op)
            ends.append(0)
            open_spans.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
            if count is not None:
                self.counts.setdefault(self.op, Counter())[count(args, result)] += 1
            return result

        return traced

    def self_times(self, window: int) -> tuple[dict, Counter, Counter]:
        """Per span name: total self ns over all ops, and calls overall and in ops < window."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child_ns = [0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += ends[i] - starts[i]
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        window_calls: Counter = Counter()
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            self_ns[name] += ends[i] - starts[i] - child_ns[i]
            calls[name] += 1
            if self.span_op[i] < window:
                window_calls[name] += 1
        return self_ns, calls, window_calls

    def window_counts(self, window: int) -> Counter:
        total: Counter = Counter()
        for op, counts in self.counts.items():
            if op < window:
                total.update(counts)
        return total

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("op,span,parent,name,start_ns,end_ns\n")
            for i, name_id in enumerate(self.span_name):
                out.write(
                    f"{self.span_op[i]},{i},{self.span_parent[i]},{self.names[name_id]},"
                    f"{self.span_start[i]},{self.span_end[i]}\n"
                )


def _replace_everywhere(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "pmbus_sim" or module_name.startswith("pmbus_sim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _transfer_outcome(args, reply) -> str:
    t = args[3]
    return f"fabric.{'write' if t.is_write else 'read'}.{reply.status.value}"


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; spans are named `<module>.<entry>`."""
    wrap = tracer.wrap

    def function(name, fn, count=None):
        _replace_everywhere(fn, wrap(name, fn, count))

    def method(cls, attr, name, count=None):
        setattr(cls, attr, wrap(name, getattr(cls, attr), count))

    function("profiles.load", profiles.load_profile)
    method(Platform, "__init__", "machine.build")
    method(Platform, "settle", "machine.settle")
    method(Transaction, "__init__", "protocol.tx_build")

    transfer = Fabric.master_transfer
    read = wrap("fabric.transfer.read", transfer, _transfer_outcome)
    write = wrap("fabric.transfer.write", transfer, _transfer_outcome)

    def master_transfer(self, master, bus, t):
        return (write if t.is_write else read)(self, master, bus, t)

    Fabric.master_transfer = master_transfer

    method(VrmDevice, "handle", "vrm.handle")
    VrmDevice.output_mv = property(wrap("vrm.output_mv", VrmDevice.output_mv.fget))
    method(
        BusFilter,
        "submit",
        "filterguard.submit",
        lambda args, veto: "filterguard.pass" if veto is None else "filterguard.veto",
    )
    method(Bmc, "ipmi_i2c", "bmc.ipmi_i2c")
    method(
        Bmc,
        "upgrade_firmware",
        "bmc.upgrade",
        lambda args, r: "bmc.upgrade.accepted" if r.accepted else "bmc.upgrade.refused",
    )
    function("firmware.build", firmware.build_package)
    function("firmware.parse", firmware.parse_package)
    function("firmware.patch", firmware.enable_root_shell)
    function("firmware.repack", firmware.repack)
    function("firmware.verify", firmware.verify)
    method(
        Cpu,
        "sign_crt_rsa",
        "cpu.sign",
        lambda args, r: "cpu.fault" if isinstance(r, FaultySignature) else "cpu.clean",
    )
    function(
        "crypto.recover",
        crypto.lenstra_recover,
        lambda args, factor: "crypto.recovered" if factor is not None else "crypto.no_factor",
    )
    CrtRsaKey.generate = classmethod(wrap("crypto.keygen", CrtRsaKey.generate.__func__))
    function("detect.sweep", detect_mod.detect)
    function("campaign.chain", campaign.establish_chain)
    for entry in (
        campaign.run_undervolt_campaign,
        campaign.run_overvolt_attack,
        campaign.run_power_down_attack,
    ):
        function("campaign.run", entry)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def per_layer(
    tracer: Tracer, window: int, window_outputs: dict, op_seconds: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Counts and ratios cover the first `window` ops, so they repeat exactly for
    a seed; self times per call cover every traced op, which took
    `op_seconds` in all. A layer no op calls reports 0 calls and 0 time.
    """
    self_ns, calls, window_calls = tracer.self_times(window)
    outcomes = tracer.window_counts(window)

    def per_call(span: str, scale_ns: float) -> float:
        return self_ns[span] / calls[span] / scale_ns if calls[span] else 0.0

    def us(span):
        return per_call(span, 1e3), "us"

    def ms(span):
        return per_call(span, 1e6), "ms"

    def n(value):
        return value, "count"

    reads = window_calls["fabric.transfer.read"]
    writes = window_calls["fabric.transfer.write"]
    submits = window_calls["filterguard.submit"]
    upgrades = window_calls["bmc.upgrade"]
    signings = window_calls["cpu.sign"]
    recovers = window_calls["crypto.recover"]

    metrics = {
        "profiles.load_calls": n(window_calls["profiles.load"]),
        "profiles.load_ms": ms("profiles.load"),
        "machine.build_ms": ms("machine.build"),
        "machine.settle_calls": n(window_calls["machine.settle"]),
        "machine.settle_us": us("machine.settle"),
        "protocol.tx_built": n(window_calls["protocol.tx_build"]),
        "protocol.tx_build_us": us("protocol.tx_build"),
        "fabric.transfers.read": n(reads),
        "fabric.transfers.write": n(writes),
        "fabric.transfer_us.read": us("fabric.transfer.read"),
        "fabric.transfer_us.write": us("fabric.transfer.write"),
        "fabric.ack_ratio.read": (_ratio(outcomes["fabric.read.ack"], reads), "ratio"),
        "fabric.ack_ratio.write": (_ratio(outcomes["fabric.write.ack"], writes), "ratio"),
        "fabric.transcript_lines": n(window_outputs["transcript_lines"]),
        "vrm.handle_calls": n(window_calls["vrm.handle"]),
        "vrm.handle_us": us("vrm.handle"),
        "vrm.output_mv_calls": n(window_calls["vrm.output_mv"]),
        "vrm.output_mv_us": us("vrm.output_mv"),
        "filterguard.submits": n(submits),
        "filterguard.submit_us": us("filterguard.submit"),
        "filterguard.veto_ratio": (_ratio(outcomes["filterguard.veto"], submits), "ratio"),
        "filterguard.log_entries": n(window_outputs["filter_log_entries"]),
        "bmc.ipmi_i2c_calls": n(window_calls["bmc.ipmi_i2c"]),
        "bmc.ipmi_i2c_us": us("bmc.ipmi_i2c"),
        "bmc.upgrade_calls": n(upgrades),
        "bmc.upgrade_ms": ms("bmc.upgrade"),
        "bmc.upgrade_accept_ratio": (_ratio(outcomes["bmc.upgrade.accepted"], upgrades), "ratio"),
    }
    for step in ("build", "parse", "patch", "repack", "verify"):
        metrics[f"firmware.{step}_calls"] = n(window_calls[f"firmware.{step}"])
        metrics[f"firmware.{step}_ms"] = ms(f"firmware.{step}")
    metrics.update(
        {
            "cpu.signings": n(signings),
            "cpu.sign_us": us("cpu.sign"),
            "cpu.fault_ratio": (_ratio(outcomes["cpu.fault"], signings), "ratio"),
            "cpu.sign_share": (self_ns["cpu.sign"] / 1e9 / op_seconds, "ratio"),
            "crypto.recover_calls": n(recovers),
            "crypto.recover_us": us("crypto.recover"),
            "crypto.recover_yield": (_ratio(outcomes["crypto.recovered"], recovers), "ratio"),
            "crypto.keygen_ms": ms("crypto.keygen"),
            "detect.sweeps": n(window_calls["detect.sweep"]),
            "detect.sweep_ms": ms("detect.sweep"),
            "campaign.chain_ms": ms("campaign.chain"),
            "campaign.runs": n(window_calls["campaign.run"]),
            "campaign.self_ms": ms("campaign.run"),
        }
    )
    # Exact simulated counts over the window, by outcome.
    for direction in ("read", "write"):
        for status in ("ack", "nack", "jammed"):
            key = f"fabric.{direction}.{status}"
            metrics[f"exact.{key}"] = n(outcomes[key])
    metrics["exact.cpu.faults"] = n(outcomes["cpu.fault"])
    metrics["exact.crypto.recoveries"] = n(outcomes["crypto.recovered"])
    metrics["exact.bmc.upgrades_accepted"] = n(outcomes["bmc.upgrade.accepted"])
    metrics["exact.bmc.upgrades_refused"] = n(outcomes["bmc.upgrade.refused"])
    return metrics
