#!/usr/bin/env python3
"""Demonstrate the overvolting destruction sequence and the filter countermeasure.

Plays the four-write sequence against a bare platform (permanent damage),
against each single-write ablation (no damage), and against a platform
protected by a 1520 mV voltage-cap interposer (attack held at nominal).
"""

import argparse

from pmbus_sim import Platform
from pmbus_sim import campaign as camp
from pmbus_sim import filterguard as fg
from pmbus_sim import protocol as pm


def describe(label: str, outcome: camp.OvervoltOutcome) -> None:
    print(
        f"{label:22s} peak {outcome.peak_mv:4d} mV  pulses {outcome.pulses}  "
        f"filtered {str(outcome.filtered):5s}  -> {outcome.cpu_status}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="x11ssl-cf")
    parser.add_argument("--cap-mv", type=int, default=1520)
    args = parser.parse_args()

    print("destruction sequence:")
    for command, value in camp.OVERVOLT_SEQUENCE:
        print(f"  write 0x{command:02X} ({pm.command_info(command).name}) <- 0x{value:04X}")
    print()

    describe("unprotected", camp.run_overvolt_attack(Platform.from_profile(args.profile)))

    for ablate, (command, _) in enumerate(camp.OVERVOLT_SEQUENCE):
        outcome = camp.run_overvolt_attack(Platform.from_profile(args.profile), ablate=ablate)
        describe(f"without 0x{command:02X} write", outcome)

    guarded = Platform.from_profile(args.profile)
    bus = next(iter(guarded.vrms))[0]
    guarded.fabric.insert_interposer(
        bus, fg.BusFilter(fg.FilterPolicy(mode=fg.PolicyMode.VOLTAGE_CAP, cap_mv=args.cap_mv))
    )
    describe(f"with {args.cap_mv} mV cap", camp.run_overvolt_attack(guarded))


if __name__ == "__main__":
    main()
