#!/usr/bin/env python3
"""Run an undervolting fault campaign and summarize glitch levels and recoveries.

Example:
    python3 scripts/run_undervolt_campaign.py --seed 42 --runs 100 --chain ipmi-i2c
"""

import argparse
import collections
import random

from pmbus_sim import Platform
from pmbus_sim import campaign as camp
from pmbus_sim.crypto import CrtRsaKey


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="x11ssl-cf")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--chain", default="ipmi-i2c", choices=[c.value for c in camp.Chain])
    parser.add_argument("--rsa-bits", type=int, default=512)
    args = parser.parse_args()

    try:
        cfg = camp.CampaignConfig(
            seed=args.seed, chain=camp.Chain(args.chain), max_runs=args.runs, rsa_bits=args.rsa_bits
        )
    except ValueError as exc:  # e.g. --runs 0: a usage error, not a traceback
        parser.error(str(exc))
    platform = Platform.from_profile(args.profile, seed=args.seed)
    key = CrtRsaKey.generate(cfg.rsa_bits, random.Random(cfg.seed))
    result = camp.run_undervolt_campaign(platform, key, cfg)

    stats = result.stats
    print(f"profile {platform.name}, chain {cfg.chain.value}, seed {cfg.seed}")
    print(
        f"{stats['runs']} runs: {stats['faulty']} faulty, {stats['crashes']} crashes, "
        f"{stats['recovered']} keys recovered ({stats['recovery_rate']:.0%})"
    )
    print(f"simulated wall time: {stats['simulated_minutes']:.0f} min")

    by_level = collections.Counter(
        r.glitch_mv for r in result.runs if r.outcome == "faulty"
    )
    print("\nfaults by glitch level:")
    for level in sorted(by_level, reverse=True):
        print(f"  {level} mV: {'#' * by_level[level]} ({by_level[level]})")

    if result.recovered_factor:
        p = result.recovered_factor
        q = result.n // p
        print(f"\nfirst recovered factor:\n  p = {p}\n  q = {q}")
        print(f"  p * q == n: {p * q == result.n}")
    else:
        print("\nno factor recovered")


if __name__ == "__main__":
    main()
