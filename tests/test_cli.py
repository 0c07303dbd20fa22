"""Command-line interface: argument wiring, output shapes and exit codes."""

import importlib.resources
import json
from pathlib import Path

import pytest
import yaml

from pmbus_sim import Platform
from pmbus_sim import firmware as fw
from pmbus_sim.cli import main, parse_transaction_text
from pmbus_sim.errors import InvalidTranscript
from pmbus_sim.protocol import Direction

GOLDEN = Path(__file__).parent / "golden" / "detect_x11_bus1.txt"


def test_parse_transaction_text():
    t = parse_transaction_text("W 0x20 0x21 [6E 00]")
    assert (t.address, t.direction, t.command, t.payload) == (0x20, Direction.WRITE, 0x21, b"\x6e\x00")
    r = parse_transaction_text("R 0x20 0x8B []")
    assert r.direction is Direction.READ and r.payload == b""
    with pytest.raises(InvalidTranscript):
        parse_transaction_text("garbage")


def test_profiles_list(capsys):
    assert main(["profiles", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["x11ssl-cf", "x12dpi-nt6", "e3c246d4i-2t"]


def test_scan_json(capsys):
    assert main(["scan", "--bus", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"bus": 0, "addresses": [0x37, 0x50, 0x58]}


def test_detect_text_matches_golden(capsys):
    assert main(["detect", "--bus", "1"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


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


def test_overvolt_exit_codes(tmp_path):
    assert main(["attack", "overvolt"]) == 0
    policy = tmp_path / "policy.yaml"
    policy.write_text("mode: voltage-cap\ncap_mv: 1520\n")
    assert main(["attack", "overvolt", "--filter-policy", str(policy)]) == 1


def test_powerdown_json(capsys):
    code = main(["attack", "powerdown", "--profile", "e3c246d4i-2t", "--channel", "cpu"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status_after_attack"] == "crashed"
    assert doc["status_after_physical_cycle"] == "running"


@pytest.mark.parametrize("command", ["scan", "detect"])
def test_unknown_master_maps_to_exit_1(capsys, command):
    assert main([command, "--bus", "1", "--master", "bogus"]) == 1
    assert "error: ChannelBlocked: no such master 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_text",
    [
        "floor_mv: 950\n",  # above the 900 mV start
        "chain: bogus\n",
        "- max_runs: 1\n",  # not a mapping
        "step_mV: 3\n",  # misspelt key: not the default step
        "step_mv: 2.5\n",  # a float, not an int
        "max_runs: true\n",  # a bool, not a run count
        "seed: 3\n",  # --seed sets the seed
        "max_runs: [1\n",  # YAML syntax error
        "rsa_bits: 1\n",  # below MIN_RSA_BITS: key generation cannot finish
        "rsa_bits: 2\n",
    ],
)
def test_malformed_campaign_config_maps_to_exit_1(tmp_path, capsys, config_text):
    config = tmp_path / "campaign.yaml"
    config.write_text(config_text)
    assert main(["attack", "undervolt", "--seed", "1", "--config", str(config)]) == 1
    assert "error: InvalidConfig: " in capsys.readouterr().err


def test_campaign_config_overrides_the_defaults(tmp_path, capsys):
    config = tmp_path / "campaign.yaml"
    config.write_text("max_runs: 2\nstep_mv: 3\nchain: ipmi-i2c\n")
    main(["attack", "undervolt", "--seed", "1", "--config", str(config)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["runs"] == 2
    assert doc["runs"][0]["trace"][:3] == [900, 897, 894]


def test_powerdown_error_maps_to_exit_1(capsys):
    assert main(["attack", "powerdown", "--profile", "e3c246d4i-2t", "--channel", "bmc"]) == 1
    assert "ChannelBlocked" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, chain",
    [
        (lambda doc: doc["masters"]["bmc"].update(buses={0: 0}), "ipmi-i2c"),  # no BMC route to the VRM
        (lambda doc: doc["bmc"].update(credentials={}), "lan-firmware"),  # nothing to log in with
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
    key = fw.generate_signing_key()
    fw.save_private_key(key, signer)
    fw.save_public_key(key.public_key(), pub)

    signed = tmp_path / "signed.img"
    repack = ["fw", "repack", str(image), "--key-file", str(keyfile), "--sign-key", str(signer)]
    assert main([*repack, "--out", str(signed)]) == 0
    capsys.readouterr()
    x12 = ["--key-file", str(keyfile), "--policy", "x12"]
    assert main(["fw", "verify", str(signed), *x12, "--sign-pub", str(pub)]) == 0
    assert json.loads(capsys.readouterr().out)["signature"] == "pass"
    assert main(["fw", "verify", str(image), *x12, "--sign-pub", str(pub)]) == 1
    assert json.loads(capsys.readouterr().out)["signature"] == "absent"
    assert main(["fw", "verify", str(signed), *x12]) == 2
    assert "--policy x12 requires --sign-pub" in capsys.readouterr().err


def test_fw_verify_requires_key(tmp_path):
    image = tmp_path / "stock.img"
    image.write_bytes(Platform.from_profile("x11ssl-cf").build_stock_firmware())
    assert main(["fw", "verify", str(image)]) == 2


def test_filter_simulate(tmp_path, capsys):
    policy = tmp_path / "policy.yaml"
    policy.write_text("mode: blocklist\nblocked_commands: [0xE4, 0xEE]\n")
    replay = tmp_path / "replay.txt"
    replay.write_text("W 0x20 0x21 [6E 00]\nW 0x20 0xE4 [08 01]\nR 0x20 0x8B []\n")
    assert main(["filter", "simulate", "--policy", str(policy), "--replay", str(replay)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ALLOW")
    assert lines[1].startswith("JAM")
    assert lines[2].startswith("ALLOW")


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
        "mode: allowlist\nviolation_verdict: shrug\n",
        "blocked_commands: [0xE4]\n",  # no mode
        "mode: voltage-cap\ncap_mV: 1400\n",  # misspelt key: not the default cap
        "mode: blocklist\ntrack_step_sel: \"false\"\n",  # a retired key, whatever its value
        "- mode: blocklist\n",  # not a mapping
        "mode: [blocklist\n",  # YAML syntax error
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
