#!/usr/bin/env python3
"""Emit demo firmware artifacts for use with the `pmbus-sim fw` subcommands.

Writes into the output directory:
    stock.img        canonical unsigned package for the chosen profile
    patched.img      same image with the management shell swapped for /bin/sh
    key.json         AES key material (as recoverable from the stock rootfs)
    signer.pem       vendor signing private key (X12-style verification)
    signer.pub.pem   matching public key
    stock.signed.img stock image with an RSA signature trailer
"""

import argparse
from pathlib import Path

from pmbus_sim import Platform
from pmbus_sim import firmware as fw


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="x11ssl-cf")
    parser.add_argument("--out", default="demo-fw", help="output directory")
    args = parser.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    platform = Platform.from_profile(args.profile)
    key = platform.firmware_key

    stock = platform.build_stock_firmware()
    (outdir / "stock.img").write_bytes(stock)
    key.save(outdir / "key.json")

    pkg = fw.parse_package(stock, key)
    (outdir / "patched.img").write_bytes(fw.enable_root_shell(pkg, key))

    signer = platform.vendor_signing_key
    fw.save_private_key(signer, outdir / "signer.pem")
    fw.save_public_key(signer.public_key(), outdir / "signer.pub.pem")
    (outdir / "stock.signed.img").write_bytes(fw.repack(pkg, key, signer))

    for name in sorted(p.name for p in outdir.iterdir()):
        print(f"wrote {outdir / name}")
    print("\ntry:")
    print(f"  pmbus-sim fw parse {outdir}/stock.img --key-file {outdir}/key.json")
    print(f"  pmbus-sim fw verify {outdir}/stock.signed.img --key-file {outdir}/key.json "
          f"--policy x12 --sign-pub {outdir}/signer.pub.pem")
    print(f"  pmbus-sim fw unpack {outdir}/patched.img --key-file {outdir}/key.json "
          f"--out {outdir}/unpacked")


if __name__ == "__main__":
    main()
