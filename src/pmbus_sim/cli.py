"""Command-line entry point binding the simulator modules together."""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

import yaml

from . import campaign as camp
from . import filterguard as fg
from . import firmware as fw
from .crypto import CrtRsaKey
from .detect import detect as run_detect
from .detect import render_report
from .errors import InvalidAddress, InvalidConfig, InvalidPolicy, InvalidTranscript, PmbusSimError
from .machine import Platform
from .profiles import BUILTIN_PROFILES
from .protocol import Direction, Transaction

_TEXT_RE = re.compile(r"^([WR])\s+0x([0-9A-Fa-f]{2})\s+0x([0-9A-Fa-f]{2})\s*\[([0-9A-Fa-f\s]*)\]")


def parse_transaction_text(line: str, lineno: int = 1) -> Transaction:
    """Parse the transcript form `W 0x20 0x21 [6E 00]`; ``lineno`` (1-based) goes into errors."""
    m = _TEXT_RE.match(line.strip())
    if m is None:
        raise InvalidTranscript(f"line {lineno}: unparseable transcript line: {line!r}")
    direction = Direction.WRITE if m.group(1) == "W" else Direction.READ
    try:
        payload = bytes(int(tok, 16) for tok in m.group(4).split())
        return Transaction(int(m.group(2), 16), direction, int(m.group(3), 16), payload)
    except (InvalidAddress, ValueError) as exc:
        raise InvalidTranscript(f"line {lineno}: {exc}") from exc


def _load_policy(path: str) -> fg.FilterPolicy:
    try:
        doc = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise InvalidPolicy(f"malformed policy: {exc}") from exc
    return fg.policy_from_dict(doc)


def _write_json(path: str | None, payload: object) -> None:
    text = json.dumps(payload, indent=2, default=str) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers --------------------------------------------------------


def _cmd_profiles(args) -> int:
    for name in BUILTIN_PROFILES:
        print(name)
    return 0


def _cmd_scan(args) -> int:
    platform = Platform.from_profile(args.profile)
    addresses = sorted(platform.fabric.scan_bus(args.master, args.bus))
    if args.json:
        _write_json(args.out, {"bus": args.bus, "addresses": addresses})
    else:
        print(" ".join(f"0x{a:02X}" for a in addresses))
    return 0


def _cmd_detect(args) -> int:
    platform = Platform.from_profile(args.profile)
    report = run_detect(platform.fabric, args.bus, master=args.master)
    if args.json:
        _write_json(
            args.out,
            {
                "bus": report.bus,
                "candidates": [asdict(c) for c in report.candidates],
            },
        )
    else:
        sys.stdout.write(render_report(report))
    return 0


def _load_campaign_config(args) -> camp.CampaignConfig:
    """Config from ``--seed``, ``--chain`` and ``--config``; anything malformed raises ``InvalidConfig``."""
    try:
        doc = yaml.safe_load(Path(args.config).read_text()) if args.config else None
        doc = {} if doc is None else doc
        if not isinstance(doc, dict):
            raise ValueError(f"expected a mapping, got {type(doc).__name__}")
        numbers = {f.name for f in fields(camp.CampaignConfig)} - {"seed", "chain"}
        unknown = set(doc) - numbers - {"chain"}
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown, key=str)}")
        not_ints = sorted(k for k in numbers & set(doc) if type(doc[k]) is not int)
        if not_ints:
            raise ValueError(f"not an int: {', '.join(not_ints)}")
        chain = camp.Chain(doc.pop("chain", "ipmi-i2c"))  # checked even when --chain overrides it
        return camp.CampaignConfig(seed=args.seed, chain=camp.Chain(args.chain or chain), **doc)
    except (yaml.YAMLError, ValueError) as exc:
        raise InvalidConfig(f"malformed campaign config: {exc}") from exc


def _cmd_attack_undervolt(args) -> int:
    platform = Platform.from_profile(args.profile, seed=args.seed)
    cfg = _load_campaign_config(args)
    key = CrtRsaKey.generate(cfg.rsa_bits, random.Random(cfg.seed))
    result = camp.run_undervolt_campaign(platform, key, cfg)
    stats = result.stats
    payload = {
        "profile": platform.name,
        "chain": cfg.chain.value,
        "seed": cfg.seed,
        "stats": stats,
        "recovered_factor": result.recovered_factor,
        "n": result.n,
        "runs": [asdict(r) for r in result.runs],
    }
    _write_json(args.out, payload)
    print(
        f"undervolt campaign: {stats['runs']} runs, {stats['faulty']} faulty, "
        f"{stats['recovered']} keys recovered ({stats['recovery_rate']:.0%})",
        file=sys.stderr,
    )
    return 0 if result.recovered_factor else 1


def _cmd_attack_overvolt(args) -> int:
    platform = Platform.from_profile(args.profile)
    if args.filter_policy:
        policy = _load_policy(args.filter_policy)
        bus = next(iter(platform.vrms))[0]
        platform.fabric.insert_interposer(bus, fg.BusFilter(policy))
    # run_overvolt_attack reads only cfg.chain: the attack signs nothing, so no seed is used
    cfg = camp.CampaignConfig(seed=0, chain=camp.Chain(args.chain or "ipmi-i2c"))
    outcome = camp.run_overvolt_attack(platform, cfg)
    _write_json(args.out, asdict(outcome))
    print(
        f"overvolt attack: peak {outcome.peak_mv} mV, CPU status: {outcome.cpu_status.capitalize()}",
        file=sys.stderr,
    )
    return 0 if not outcome.filtered else 1


def _cmd_attack_powerdown(args) -> int:
    platform = Platform.from_profile(args.profile)
    outcome = camp.run_power_down_attack(platform, channel=args.channel)
    _write_json(args.out, asdict(outcome))
    return 0


def _cmd_fw(args) -> int:
    key = fw.KeyMaterial.load(args.key_file) if args.key_file else None
    data = Path(args.image).read_bytes()

    if args.fw_command == "parse":
        pkg = fw.parse_package(data, key)
        payload = {
            "version": pkg.footer.version,
            "body_len": pkg.footer.body_len,
            "table_encrypted": pkg.table_encrypted,
            "signed": pkg.signature is not None,
            "sections": [
                {"name": s.name, "offset": s.offset, "length": s.length, "crc32": f"{s.crc32:08X}"}
                for s in pkg.sections
            ],
        }
        _write_json(args.out, payload)
        return 0

    if args.fw_command == "verify":
        if key is None:
            print("verify requires --key-file", file=sys.stderr)
            return 2
        pkg = fw.parse_package(data, key)
        pubkey = None
        if args.policy == "x12":
            if not args.sign_pub:
                print("--policy x12 requires --sign-pub", file=sys.stderr)
                return 2
            pubkey = fw.load_public_key(args.sign_pub)
        report = fw.verify(pkg, pubkey)
        payload = {
            "sections": report.section_crc,
            "half_crc": report.half_crc_ok,
            "signature": report.signature,
            "ok": report.ok,
        }
        _write_json(args.out, payload)
        return 0 if report.ok else 1

    if key is None:
        print(f"{args.fw_command} requires --key-file", file=sys.stderr)
        return 2
    pkg = fw.parse_package(data, key)

    if args.fw_command == "unpack":
        outdir = Path(args.out or "unpacked")
        outdir.mkdir(parents=True, exist_ok=True)
        for section in pkg.sections:
            (outdir / f"{section.name}.bin").write_bytes(section.data)
            if section.name in fw.ARCHIVE_SECTIONS:
                for name, blob in fw.unpack_archive(section.data, key):
                    target = outdir / section.name / name
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_bytes(blob)
        print(f"unpacked to {outdir}")
        return 0

    if args.fw_command == "patch-shell":
        out = args.out or args.image
        Path(out).write_bytes(fw.enable_root_shell(pkg, key))
        print(f"patched image written to {out}")
        return 0

    if args.fw_command == "repack":
        signer = fw.load_private_key(args.sign_key) if args.sign_key else None
        out = args.out or args.image
        Path(out).write_bytes(fw.repack(pkg, key, signer))
        print(f"repacked image written to {out}")
        return 0

    raise AssertionError(args.fw_command)


def _cmd_filter_simulate(args) -> int:
    bus_filter = fg.BusFilter(_load_policy(args.policy))
    for lineno, line in enumerate(Path(args.replay).read_text().splitlines(), start=1):
        if line.strip():
            bus_filter.submit(parse_transaction_text(line, lineno))
    for t, verdict in bus_filter.log:
        print(f"{verdict.value.upper():5s} {t.text()}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pmbus-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--profile", default="x11ssl-cf")
        p.add_argument("--out", help="write structured output to this path")

    p = sub.add_parser("profiles", help="list built-in platform profiles")
    p.add_argument("profiles_command", choices=["list"])
    p.set_defaults(func=_cmd_profiles)

    for name, func, help_text in (
        ("scan", _cmd_scan, "i2cdetect-style bus sweep"),
        ("detect", _cmd_detect, "VRM discovery and vendor classification"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--json", action="store_true")
        p.add_argument("--bus", type=int, required=True)
        p.add_argument("--master", default="cpu")
        p.set_defaults(func=func)

    p = sub.add_parser("attack", help="run an attack scenario")
    attack_sub = p.add_subparsers(dest="attack_command", required=True)

    pa = attack_sub.add_parser("undervolt")
    common(pa)
    pa.add_argument("--seed", type=int, required=True)
    pa.add_argument("--chain", choices=[c.value for c in camp.Chain])
    pa.add_argument("--config", help="YAML campaign config overrides")
    pa.set_defaults(func=_cmd_attack_undervolt)

    pa = attack_sub.add_parser("overvolt")
    common(pa)
    pa.add_argument("--chain", choices=[c.value for c in camp.Chain])
    pa.add_argument("--filter-policy", help="YAML filter policy to interpose first")
    pa.set_defaults(func=_cmd_attack_overvolt)

    pa = attack_sub.add_parser("powerdown")
    common(pa)
    pa.add_argument("--channel", default="cpu", choices=["cpu", "bmc"])
    pa.set_defaults(func=_cmd_attack_powerdown)

    p = sub.add_parser("fw", help="firmware package tooling")
    p.add_argument("fw_command", choices=["parse", "verify", "unpack", "patch-shell", "repack"])
    p.add_argument("image")
    p.add_argument("--key-file")
    p.add_argument("--sign-key", help="PEM private key for signing on repack")
    p.add_argument("--sign-pub", help="PEM public key for x12 verification")
    p.add_argument("--policy", choices=["x11", "x12"], default="x11")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fw)

    p = sub.add_parser("filter", help="filter policy tooling")
    p.add_argument("filter_command", choices=["simulate"])
    p.add_argument("--policy", required=True)
    p.add_argument("--replay", required=True, help="transcript log to replay")
    p.set_defaults(func=_cmd_filter_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PmbusSimError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
