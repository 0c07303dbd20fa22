"""Profile loading: the schema is closed, the BMC policy follows from its generation, and the
parsed config is shared read-only between platforms."""

import importlib.resources

import pytest
import yaml

from pmbus_sim import Platform
from pmbus_sim import firmware as fw
from pmbus_sim.errors import InvalidProfile
from pmbus_sim.profiles import BUILTIN_PROFILES, load_profile


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return mutate


def _delete(key):
    return lambda doc: doc.pop(key)


@pytest.mark.parametrize(
    "mutate",
    [
        _set("vendor_id", 0x1234),  # unknown top-level key
        _set("masters", "bmc", "filtered", True),  # unknown master key
        _set("devices", -1, "base_mv", 250),  # unknown VRM key: the VID base is fixed
        _set("devices", 0, "vendor", "mps"),  # VRM key on a dummy device
        _set("bmc", "i2c_passthrough_filtered", True),  # the retired policy flags
        _set("bmc", "validation_policy", "rsa-signed"),
        _set("fault_model", {"v_glitch_mv": 820}),  # unknown fault_model key
        _set("bmc", "generation", "X13"),
        _set("devices", -1, "vendor", "infineon"),
        _set("devices", -1, "kind", "psu"),
        _set("devices", -1, "address", "0x2G"),  # not a number
        _set("devices", -1, "address", 0x05),  # reserved, below the 7-bit device range
        _set("devices", -1, "address", 0x78),  # reserved, above it
        _set("masters", "cpu", "buses", [0, 1]),  # not a bus map
        _delete("bmc"),
        lambda doc: doc["masters"].pop("bmc"),  # the BMC needs a bus port
        lambda doc: doc.update(devices=doc["devices"][:-1]),  # dummies only, no VRM
        _set("buses", [0, 1]),  # the retired bus list
        _set("masters", "pcie", "requires_jumper", "JI2C_TYPO"),  # names no jumper
        _set("devices", -1, "requires_jumpers", ["SMBDAT_VRM", "NOPE"]),
        _set("devices", -1, "write_masters", ["cpuu"]),  # names no master
        _set("devices", -1, "rail_page", 5),  # no such page
        _set("devices", -1, "temperature_raw", 0x10000),  # wider than its 16-bit register
        _set("devices", -1, "page1_vout", 0x10000),
        _set("devices", -1, "initial_vid", 3.7),  # a VID is an exact int and a byte
        _set("devices", -1, "initial_vid", True),
        _set("devices", -1, "initial_vid", 0x100),
        _set("devices", -1, "ocp_limit_a", 0),  # would boot with the rail tripped
        _set("devices", -1, "ocp_limit_a", -1),
        _set("devices", -1, "ocp_limit_a", "100"),
        _set("devices", -1, "bus", -1),
        _set("devices", -1, "address", 32.0),
        _set("masters", "cpu", "buses", {0: 0, 1: -1}),
        _set("nominal_load_a", -5.0),
        _set("nominal_load_a", float("nan")),
        _set("nominal_load_a", True),
        _set("name", 5),
        _set("fault_model", {"brick_events_needed": 2.5}),
    ],
)
def test_malformed_profile_is_rejected(tmp_path, mutate):
    builtin = importlib.resources.files("pmbus_sim").joinpath("profiles/x11ssl-cf.yaml")
    doc = yaml.safe_load(builtin.read_text())
    mutate(doc)
    path = tmp_path / "board.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(InvalidProfile):
        Platform.from_profile(str(path))


@pytest.mark.parametrize("name", BUILTIN_PROFILES)
def test_generation_alone_sets_the_bmc_policy(name):
    platform = Platform.from_profile(name)
    x12 = platform.config.bmc.generation == "X12"
    assert platform.config.bmc.x12_policy is x12
    assert (platform.bmc.signing_pubkey is not None) is x12
    stock = fw.parse_package(platform.build_stock_firmware(), platform.firmware_key)
    assert (stock.signature is not None) is x12


def test_yaml_syntax_error_is_an_invalid_profile(tmp_path):
    path = tmp_path / "board.yaml"
    path.write_text("name: [unclosed\n")
    with pytest.raises(InvalidProfile):
        Platform.from_profile(str(path))


def test_each_profile_text_is_parsed_once():
    assert load_profile("x11ssl-cf") is load_profile("x11ssl-cf")
    assert Platform.from_profile("x11ssl-cf").config is Platform.from_profile("x11ssl-cf").config


def test_shared_config_is_read_only():
    config = load_profile("x11ssl-cf")
    with pytest.raises(TypeError):
        config.jumpers["SMBDAT_VRM"] = False
    with pytest.raises(TypeError):
        config.masters[0].bus_map[7] = 7
    with pytest.raises(TypeError):
        config.bmc.credentials["ADMIN"] = "guess"


def test_jumper_change_stays_on_its_platform():
    first = Platform.from_profile("x11ssl-cf")
    second = Platform.from_profile("x11ssl-cf")
    name, connected = next(iter(first.config.jumpers.items()))
    first.fabric.set_jumper(name, not connected)
    assert first.fabric.jumpers[name] is (not connected)
    assert second.fabric.jumpers[name] is connected
    assert Platform.from_profile("x11ssl-cf").fabric.jumpers[name] is connected
    assert first.config.jumpers[name] is connected


def test_rewritten_user_profile_is_parsed_again(tmp_path):
    builtin = importlib.resources.files("pmbus_sim").joinpath("profiles/x11ssl-cf.yaml")
    doc = yaml.safe_load(builtin.read_text())
    path = tmp_path / "board.yaml"
    doc["name"] = "board-a"
    path.write_text(yaml.safe_dump(doc))
    assert Platform.from_profile(str(path)).name == "board-a"
    doc["name"] = "board-b"
    doc["nominal_load_a"] = 75.0
    path.write_text(yaml.safe_dump(doc))
    rebuilt = Platform.from_profile(str(path))
    assert (rebuilt.name, rebuilt.config.nominal_load_a) == ("board-b", 75.0)


def test_malformed_profile_fails_on_every_load(tmp_path):
    path = tmp_path / "board.yaml"
    path.write_text("name: board\nvendor_id: 0x1234\n")
    for _ in range(3):
        with pytest.raises(InvalidProfile):
            Platform.from_profile(str(path))
