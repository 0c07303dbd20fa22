"""Command-line interface: argument wiring, output shapes and exit codes."""

import importlib.resources
import json

import pytest
import yaml
from cryptography.hazmat.primitives.asymmetric import rsa

from pmbus_sim import Platform
from pmbus_sim import firmware as fw
from pmbus_sim.cli import main, parse_transaction_text
from pmbus_sim.errors import InvalidTranscript
from pmbus_sim.protocol import Direction


def test_parse_transaction_text():
    t = parse_transaction_text("W 0x20 0x21 [6E 00]")
    assert (t.address, t.direction, t.command, t.payload) == (0x20, Direction.WRITE, 0x21, b"\x6e\x00")
    r = parse_transaction_text("R 0x20 0x8B []")
    assert r.direction is Direction.READ and r.payload == b""
    with pytest.raises(InvalidTranscript):
        parse_transaction_text("garbage")


def test_scan_json(capsys):
    assert main(["scan", "--bus", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"bus": 0, "addresses": [0x37, 0x50, 0x58]}


@pytest.mark.parametrize("command", ["scan", "detect"])
def test_out_writes_the_json_document(tmp_path, capsys, command):
    out = tmp_path / f"{command}.json"
    assert main([command, "--bus", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["bus"] == 1
    if command == "scan":
        assert doc["addresses"] == [0x08, 0x10, 0x19, 0x20, 0x30, 0x35, 0x36, 0x44, 0x51]
    else:
        assert [c["address"] for c in doc["candidates"]] == [0x20]


def test_undervolt_writes_report(tmp_path, capsys):
    out = tmp_path / "campaign.json"
    code = main(["attack", "undervolt", "--seed", "42", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["stats"]["runs"] == 100
    assert doc["seed"] == 42
    if code == 0:
        assert doc["n"] % doc["recovered_factor"] == 0
    else:
        assert doc["recovered_factor"] is None


def test_undervolt_summary_goes_to_stderr(capsys):
    """The campaign's counts and its faults-by-glitch-level histogram, beside the JSON on stdout."""
    assert main(["attack", "undervolt", "--seed", "42"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["stats"]["recovered"] == 28
    assert err.splitlines() == [
        "undervolt campaign: 100 runs, 100 faulty, 0 crashes, 28 keys recovered (28%)",
        "simulated wall time: 870 min",
        "faults by glitch level:",
        f"  840 mV: {'#' * 57} (57)",
        f"  835 mV: {'#' * 29} (29)",
        f"  830 mV: {'#' * 13} (13)",
        "  825 mV: # (1)",
    ]


def test_overvolt_exit_codes(tmp_path, capsys):
    """A 1520 mV cap filters the sequence and the CPU keeps running; a filtered attack exits 1."""
    policy = tmp_path / "policy.yaml"
    policy.write_text("mode: voltage-cap\ncap_mv: 1520\n")
    assert main(["attack", "overvolt", "--filter-policy", str(policy)]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"peak_mv": 1375, "cpu_status": "running", "pulses": 2, "filtered": True}
    assert err == "overvolt attack: peak 1375 mV, CPU status: Running\n"


def test_overvolt_on_a_vrm_that_refuses_it_is_not_filtered(tmp_path, capsys):
    """Without an interposer nothing is vetoed: the Intersil VRM NACKs the MPS override writes."""
    builtin = importlib.resources.files("pmbus_sim").joinpath("profiles/e3c246d4i-2t.yaml")
    doc = yaml.safe_load(builtin.read_text())
    del doc["devices"][1]["write_masters"]
    profile = tmp_path / "board.yaml"
    profile.write_text(yaml.safe_dump(doc))
    assert main(["attack", "overvolt", "--profile", str(profile)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"peak_mv": 995, "cpu_status": "running", "pulses": 2, "filtered": False}
    assert err == "overvolt attack: peak 995 mV, CPU status: Running\n"


def test_unknown_profile_maps_to_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # nor is there a file of that name
    assert main(["scan", "--profile", "nosuch", "--bus", "1"]) == 1
    assert capsys.readouterr().err == "error: UnknownProfile: nosuch\n"


@pytest.mark.parametrize("command", ["scan", "detect"])
def test_unknown_master_maps_to_exit_1(capsys, command):
    assert main([command, "--bus", "1", "--master", "bogus"]) == 1
    assert "error: ChannelBlocked: no such master 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_text",
    [
        "floor_mv: 950\n",  # above the 900 mV start
        "start_mv: 2000\n",  # above the 1570 mV top of the VID table
        "floor_mv: -5\n",
        "chain: bogus\n",
        "chain: ipmi-i2c\n",  # --chain alone picks the chain
        "- max_runs: 1\n",  # not a mapping
        "step_mV: 3\n",  # misspelt key: not the default step
        "step_mv: 2.5\n",  # a float, not an int
        "max_runs: true\n",  # a bool, not a run count
        "seed: 3\n",  # --seed sets the seed
        "max_runs: [1\n",  # YAML syntax error
        "rsa_bits: 1\n",  # below MIN_RSA_BITS: key generation cannot finish
        "rsa_bits: 2\n",
        "max_runs: 0\n",  # used to report 0 runs and exit 1 without an error line
        "max_runs: -3\n",
        "signings_per_level: 0\n",  # used to run without ever signing
        "signings_per_level: -2\n",
    ],
)
def test_malformed_campaign_config_maps_to_exit_1(tmp_path, capsys, config_text):
    config = tmp_path / "campaign.yaml"
    config.write_text(config_text)
    assert main(["attack", "undervolt", "--seed", "1", "--config", str(config)]) == 1
    assert "error: InvalidConfig: " in capsys.readouterr().err


def test_campaign_config_overrides_the_defaults(tmp_path, capsys):
    config = tmp_path / "campaign.yaml"
    config.write_text("max_runs: 2\nstep_mv: 3\n")
    main(["attack", "undervolt", "--seed", "1", "--config", str(config)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["runs"] == 2
    assert doc["runs"][0]["trace"][:3] == [900, 897, 894]


@pytest.mark.parametrize(
    "mutate, chain",
    [
        (lambda doc: doc["masters"]["bmc"].update(buses={0: 0}), "ipmi-i2c"),  # no BMC route to the VRM
        (lambda doc: doc["bmc"].update(credentials={}), "lan-firmware"),  # nothing to log in with
        # a VRM the BMC may not write is refused before the upgrade installs a root shell
        (lambda doc: doc["devices"][-1].update(write_masters=["cpu"]), "kcs-firmware"),
    ],
)
def test_unavailable_chain_maps_to_exit_1(tmp_path, capsys, mutate, chain):
    builtin = importlib.resources.files("pmbus_sim").joinpath("profiles/x11ssl-cf.yaml")
    doc = yaml.safe_load(builtin.read_text())
    mutate(doc)
    profile = tmp_path / "board.yaml"
    profile.write_text(yaml.safe_dump(doc))
    assert main(["attack", "undervolt", "--seed", "1", "--profile", str(profile), "--chain", chain]) == 1
    assert "error: ChainUnavailable" in capsys.readouterr().err


def test_fw_workflow(tmp_path, capsys):
    platform = Platform.from_profile("x11ssl-cf")
    image = tmp_path / "stock.img"
    keyfile = tmp_path / "key.json"
    image.write_bytes(platform.build_stock_firmware())
    platform.firmware_key.save(keyfile)

    assert main(["fw", "parse", str(image), "--key-file", str(keyfile)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in doc["sections"]] == ["nvram", "rootfs", "kernel", "webfs"]

    assert main(["fw", "verify", str(image), "--key-file", str(keyfile)]) == 0

    patched = tmp_path / "patched.img"
    assert main(
        ["fw", "patch-shell", str(image), "--key-file", str(keyfile), "--out", str(patched)]
    ) == 0
    pkg = fw.parse_package(patched.read_bytes(), platform.firmware_key)
    assert fw.has_root_shell(pkg, platform.firmware_key)

    corrupted = tmp_path / "corrupt.img"
    blob = bytearray(image.read_bytes())
    blob[3] ^= 0xFF
    corrupted.write_bytes(bytes(blob))
    assert main(["fw", "verify", str(corrupted), "--key-file", str(keyfile)]) == 1

    unpack_dir = tmp_path / "out"
    assert main(
        ["fw", "unpack", str(image), "--key-file", str(keyfile), "--out", str(unpack_dir)]
    ) == 0
    assert (unpack_dir / "rootfs" / "SMASH" / "msh").exists()


def test_fw_signed_repack_passes_x12_verify(tmp_path, capsys):
    platform = Platform.from_profile("x11ssl-cf")
    image, keyfile = tmp_path / "stock.img", tmp_path / "key.json"
    image.write_bytes(platform.build_stock_firmware())
    platform.firmware_key.save(keyfile)
    signer, pub = tmp_path / "signer.pem", tmp_path / "signer.pub.pem"
    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    fw.save_private_key(key, signer)
    fw.save_public_key(key.public_key(), pub)

    signed = tmp_path / "signed.img"
    repack = ["fw", "repack", str(image), "--key-file", str(keyfile), "--sign-key", str(signer)]
    assert main([*repack, "--out", str(signed)]) == 0
    capsys.readouterr()
    verify = ["fw", "verify", "--key-file", str(keyfile)]
    assert main([*verify, str(signed), "--sign-pub", str(pub)]) == 0
    assert json.loads(capsys.readouterr().out)["signature"] == "pass"
    assert main([*verify, str(image), "--sign-pub", str(pub)]) == 1
    assert json.loads(capsys.readouterr().out)["signature"] == "absent"
    assert main([*verify, str(image)]) == 0  # without --sign-pub the signature is not checked
    assert json.loads(capsys.readouterr().out)["signature"] is None


def test_fw_verify_requires_key(tmp_path):
    image = tmp_path / "stock.img"
    image.write_bytes(Platform.from_profile("x11ssl-cf").build_stock_firmware())
    with pytest.raises(SystemExit) as exc:
        main(["fw", "verify", str(image)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, option",
    [
        ("parse", "--sign-pub"),
        ("parse", "--sign-key"),
        ("verify", "--sign-key"),
        ("unpack", "--sign-pub"),
        ("unpack", "--sign-key"),
        ("patch-shell", "--sign-pub"),
        ("patch-shell", "--sign-key"),
        ("repack", "--sign-pub"),
    ],
)
def test_fw_subcommand_refuses_an_option_it_does_not_read(tmp_path, capsys, command, option):
    """An option a subcommand would ignore, e.g. ``verify --sign-key``, is a usage error, not a pass."""
    platform = Platform.from_profile("x11ssl-cf")
    image, keyfile, pem = tmp_path / "stock.img", tmp_path / "key.json", tmp_path / "signer.pem"
    image.write_bytes(platform.build_stock_firmware())
    platform.firmware_key.save(keyfile)
    signer = fw.vendor_signing_key()
    if option == "--sign-key":
        fw.save_private_key(signer, pem)
    else:
        fw.save_public_key(signer.public_key(), pem)
    argv = ["fw", command, str(image), "--key-file", str(keyfile), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, str(pem)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} " in capsys.readouterr().err


def test_filter_simulate(tmp_path, capsys):
    policy = tmp_path / "policy.yaml"
    policy.write_text("mode: blocklist\nblocked_commands: [0xE4, 0xEE]\n")
    replay = tmp_path / "replay.txt"
    replay.write_text("W 0x20 0x21 [6E 00]\nW 0x20 0xE4 [08 01]\nR 0x20 0x8B []\n")
    assert main(["filter", "simulate", "--policy", str(policy), "--replay", str(replay)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ALLOW W 0x20 0x21 [6E 00]",
        "JAM   W 0x20 0xE4 [08 01]",
        "ALLOW R 0x20 0x8B []",
    ]


def test_bad_image_maps_to_exit_1(tmp_path, capsys):
    junk = tmp_path / "junk.img"
    junk.write_bytes(b"\x00" * 128)
    assert main(["fw", "parse", str(junk)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "policy_text",
    [
        "mode: bogus\n",  # unknown mode
        "mode: voltage-cap\ntrack_step_sel: false\n",  # a retired key
        "mode: voltage-cap\ncap_mv: .inf\n",  # a float, not an int
        "mode: voltage-cap\ncap_mv: true\n",  # a bool is not a 1 mV cap
        "mode: voltage-cap\ncap_mv: 1400.9\n",  # not truncated to 1400
        "mode: blocklist\nblocked_commands: [true, 0x1FF]\n",  # not command bytes
        "mode: blocklist\nblocked_commands: [true]\n",
        "mode: allowlist\nallowed_commands: [0x1FF]\n",
        "mode: blocklist\nblocked_commands: \"12\"\n",  # a string, not a list of codes
        "mode: blocklist\nblocked_commands: [.inf]\n",
        "mode: blocklist\nblocked_commands: [0xZZ]\n",  # not a command code
        "mode: allowlist\nviolation_verdict: shrug\n",  # a retired key: a violation always jams
        "blocked_commands: [0xE4]\n",  # no mode
        "mode: voltage-cap\ncap_mV: 1400\n",  # misspelt key: not the default cap
        "mode: blocklist\ntrack_step_sel: \"false\"\n",  # a retired key, whatever its value
        "- mode: blocklist\n",  # not a mapping
        "mode: [blocklist\n",  # YAML syntax error
        "mode: blocklist\ncap_mv: 1400\n",  # a blocklist enforces no cap
        "mode: voltage-cap\nblocked_commands: [0xE4]\n",  # a cap blocks no command
        "mode: allowlist\nblocked_commands: [0x21]\n",  # an allowlist reads only its own list
        "mode: voltage-cap\nviolation_verdict: allow\n",  # the retired key, with a verdict that vetoes nothing
    ],
)
@pytest.mark.parametrize("subcommand", ["filter-simulate", "attack-overvolt"])
def test_malformed_policy_maps_to_exit_1(tmp_path, capsys, policy_text, subcommand):
    policy = tmp_path / "policy.yaml"
    policy.write_text(policy_text)
    replay = tmp_path / "replay.txt"
    replay.write_text("W 0x20 0x21 [6E 00]\n")
    if subcommand == "filter-simulate":
        argv = ["filter", "simulate", "--policy", str(policy), "--replay", str(replay)]
    else:
        argv = ["attack", "overvolt", "--filter-policy", str(policy)]
    assert main(argv) == 1
    assert "error: InvalidPolicy: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ("garbage", "unparseable transcript line"),
        ("W 0x20 0x21 [6E 00 00]", "VOUT_COMMAND expects 2 data byte(s), got 3"),
        ("W 0x00 0x21 [6E 00]", "address 0x00 outside"),
    ],
)
def test_malformed_transcript_maps_to_exit_1(tmp_path, capsys, bad_line, reason):
    policy = tmp_path / "policy.yaml"
    policy.write_text("mode: blocklist\n")
    replay = tmp_path / "replay.txt"
    replay.write_text(f"W 0x20 0x21 [6E 00]\n\n{bad_line}\n")
    assert main(["filter", "simulate", "--policy", str(policy), "--replay", str(replay)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidTranscript: line 3: ")
    assert reason in err


def test_replay_that_is_not_utf8_maps_to_exit_1(tmp_path, capsys):
    policy = tmp_path / "policy.yaml"
    policy.write_text("mode: blocklist\n")
    replay = tmp_path / "replay.txt"
    replay.write_bytes(b"W 0x20 0x21 [6E 00]\n\xff\n")
    assert main(["filter", "simulate", "--policy", str(policy), "--replay", str(replay)]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidTranscript: replay is not UTF-8 text: ")


def _pem_files(tmp_path):
    """PEM files that are not an unencrypted RSA key of the kind each flag takes."""
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import ec

    rsa_key = fw.vendor_signing_key()
    ec_key = ec.generate_private_key(ec.SECP256R1())
    p, q = 2**240 + 115, 2**240 + 325  # primes: a 481-bit modulus, too short to sign SHA-256
    d = pow(65537, -1, (p - 1) * (q - 1))
    short_key = rsa.RSAPrivateNumbers(
        p, q, d, rsa.rsa_crt_dmp1(d, p), rsa.rsa_crt_dmq1(d, q), rsa.rsa_crt_iqmp(p, q),
        rsa.RSAPublicNumbers(65537, p * q),
    ).private_key()

    pem = serialization.Encoding.PEM
    pkcs8 = serialization.PrivateFormat.PKCS8
    spki = serialization.PublicFormat.SubjectPublicKeyInfo
    files = {
        "garbage.pem": b"-----BEGIN PUBLIC KEY-----\nnot base64\n-----END PUBLIC KEY-----\n",
        "rsa-private.pem": rsa_key.private_bytes(pem, pkcs8, serialization.NoEncryption()),
        "rsa-encrypted.pem": rsa_key.private_bytes(
            pem, pkcs8, serialization.BestAvailableEncryption(b"secret")
        ),
        "ec-public.pem": ec_key.public_key().public_bytes(pem, spki),
        "ec-private.pem": ec_key.private_bytes(pem, pkcs8, serialization.NoEncryption()),
        "rsa-short.pem": short_key.private_bytes(pem, pkcs8, serialization.NoEncryption()),
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)


@pytest.mark.parametrize(
    "key_text, pem_flag",
    [
        ('{"aes_key": "zz"}', None),  # not hex, and no IV
        ('{"aes_key": "zz", "aes_iv": "00"}', None),
        ("aes_key: 00\n", None),  # not JSON
        ('{"aes_key": "00", "aes_iv": "00"}', None),  # 1-byte key and IV
        ('{"aes_key": 0, "aes_iv": 0}', None),  # numbers, not hex strings
        ('["00", "00"]', None),  # not an object
        (None, ("verify", "--sign-pub", "garbage.pem")),
        (None, ("verify", "--sign-pub", "rsa-private.pem")),  # a private key where a public one goes
        (None, ("verify", "--sign-pub", "ec-public.pem")),
        (None, ("repack", "--sign-key", "garbage.pem")),
        (None, ("repack", "--sign-key", "rsa-encrypted.pem")),
        (None, ("repack", "--sign-key", "ec-private.pem")),
        (None, ("repack", "--sign-key", "rsa-short.pem")),
    ],
    ids=[
        "not-hex", "no-iv", "not-json", "1-byte", "numbers", "list",
        "pub-garbage", "pub-is-private", "pub-ec",
        "key-garbage", "key-encrypted", "key-ec", "key-too-short",
    ],
)
def test_malformed_key_maps_to_exit_1(tmp_path, capsys, key_text, pem_flag):
    platform = Platform.from_profile("x11ssl-cf")
    image, keyfile = tmp_path / "stock.img", tmp_path / "key.json"
    image.write_bytes(platform.build_stock_firmware())
    platform.firmware_key.save(keyfile)
    if key_text is not None:
        argv = ["fw", "parse", str(image)]
        keyfile.write_text(key_text)
    else:
        _pem_files(tmp_path)
        command, flag, name = pem_flag
        argv = ["fw", command, str(image), flag, str(tmp_path / name), "--out", str(tmp_path / "o")]
    assert main([*argv, "--key-file", str(keyfile)]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidKey: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["fw", "parse", "{missing}"],
        ["fw", "parse", "{image}", "--key-file", "{missing}"],
        ["fw", "verify", "{image}", "--key-file", "{key}", "--sign-pub", "{missing}"],
        ["fw", "repack", "{image}", "--key-file", "{key}", "--sign-key", "{missing}"],
        ["attack", "overvolt", "--filter-policy", "{missing}"],
        ["attack", "undervolt", "--seed", "1", "--config", "{missing}"],
        ["filter", "simulate", "--policy", "{missing}", "--replay", "{replay}"],
        ["filter", "simulate", "--policy", "{policy}", "--replay", "{missing}"],
    ],
    ids=["image", "key-file", "sign-pub", "sign-key", "filter-policy", "config", "policy", "replay"],
)
def test_missing_input_file_maps_to_exit_1(tmp_path, capsys, argv):
    platform = Platform.from_profile("x11ssl-cf")
    paths = {name: tmp_path / name for name in ("image", "key", "policy", "replay", "missing")}
    paths["image"].write_bytes(platform.build_stock_firmware())
    platform.firmware_key.save(paths["key"])
    paths["policy"].write_text("mode: blocklist\n")
    paths["replay"].write_text("W 0x20 0x21 [6E 00]\n")
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError: ") and str(paths["missing"]) in err


@pytest.mark.parametrize(
    "entries",
    [
        ["../../escaped.txt"],
        ["../rootfs.bin"],
        ["{tmp}/absolute.txt"],
        # a target may not be the section's directory, repeat, or be a file another entry needs
        # as a directory: these used to write part of the output, or lose the first "a"
        [""],
        ["a", "a"],
        ["x", "x/y"],
        ["x/y", "x"],
    ],
    ids=lambda entries: ",".join(entries) or "empty",
)
def test_unpack_refuses_an_entry_outside_its_directory(tmp_path, capsys, entries):
    key = Platform.from_profile("x11ssl-cf").firmware_key
    contents = {
        "nvram": b"\x00" * 64,
        "rootfs": [("SMASH/msh", b"\x7fELF")] + [(e.format(tmp=tmp_path), b"entry\n") for e in entries],
        "kernel": b"\x00" * 64,
        "webfs": [("index.html", b"<html></html>")],
    }
    image, keyfile = tmp_path / "evil.img", tmp_path / "key.json"
    image.write_bytes(fw.build_package(contents, key))
    key.save(keyfile)
    out = tmp_path / "out" / "unpacked"
    assert main(["fw", "unpack", str(image), "--key-file", str(keyfile), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: BadArchive: rootfs entry ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["evil.img", "key.json"]  # nothing written


@pytest.mark.parametrize(
    "in_the_way, error",
    [("rootfs", "NotADirectoryError"), ("nvram.bin/", "IsADirectoryError")],
    ids=["file-where-a-directory-goes", "directory-where-a-file-goes"],
)
def test_unpack_refuses_a_path_already_in_the_way(tmp_path, capsys, in_the_way, error):
    platform = Platform.from_profile("x11ssl-cf")
    image, keyfile = tmp_path / "stock.img", tmp_path / "key.json"
    image.write_bytes(platform.build_stock_firmware())
    platform.firmware_key.save(keyfile)
    out = tmp_path / "out"
    out.mkdir()
    blocker = out / in_the_way.rstrip("/")
    blocker.mkdir() if in_the_way.endswith("/") else blocker.touch()
    assert main(["fw", "unpack", str(image), "--key-file", str(keyfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: {blocker} is a ")
    assert [p.name for p in out.rglob("*")] == [blocker.name]  # nothing written
