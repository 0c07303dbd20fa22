"""Outside documents fail only with the simulator's own errors.

Filter policies and undervolt campaign configs go through the CLI's loaders,
AES key files through ``KeyMaterial.load`` and board profiles through
``Platform.from_profile``, which also builds the board. A loader's input is
an arbitrary document (None, bools, numbers, strings, lists and mappings,
nested) dumped as YAML or JSON, or raw text, or raw bytes; a profile is also
a built-in one with one field replaced by such a document. Each may load or
raise ``PmbusSimError``; any other exception is an escape. The loaders are
fuzzed rather than ``main()``, because a valid config may ask for a key size
or a run count too large to run.
"""

import argparse
import copy
import functools
import importlib.resources
import json

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from pmbus_sim import Platform, cli
from pmbus_sim.errors import PmbusSimError
from pmbus_sim.firmware import KeyMaterial
from pmbus_sim.profiles import BUILTIN_PROFILES

# the names the loaders look for, so that documents reach past the unknown-key checks
WORDS = (
    "mode", "blocklist", "allowlist", "voltage-cap", "blocked_commands", "allowed_commands",
    "cap_mv", "violation_verdict", "jam", "block", "allow", "start_mv", "floor_mv", "step_mv",
    "signings_per_level", "max_runs", "rsa_bits", "aes_key", "aes_iv", "00" * 16, "0xE4",
)
strings = st.sampled_from(WORDS) | st.text(max_size=12)
documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(strings | st.integers(), inner, max_size=4),
    max_leaves=12,
)
inputs = st.one_of(
    documents.map(lambda doc: yaml.safe_dump(doc).encode()),
    documents.map(lambda doc: json.dumps(doc).encode()),
    st.text().map(str.encode),
    st.binary(),
)
fuzz = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

LOADERS = {
    "policy": cli._load_policy,
    "campaign-config": lambda path: cli._load_campaign_config(
        argparse.Namespace(config=path, seed=1, chain="ipmi-i2c")
    ),
    "key-file": KeyMaterial.load,
    "profile": Platform.from_profile,
}


@pytest.mark.parametrize("load", LOADERS.values(), ids=LOADERS)
@fuzz
@given(data=inputs)
def test_loader_raises_only_simulator_errors(tmp_path, load, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    try:
        load(str(path))
    except PmbusSimError:
        pass


@functools.cache
def builtin_document(name: str):
    path = importlib.resources.files("pmbus_sim").joinpath(f"profiles/{name}.yaml")
    return yaml.safe_load(path.read_text())


def field_paths(node, path=()):
    """The key path of every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from field_paths(value, (*path, key))


@fuzz
@given(name=st.sampled_from(BUILTIN_PROFILES), draw=st.data())
def test_one_field_profile_mutation_raises_only_simulator_errors(tmp_path, name, draw):
    doc = copy.deepcopy(builtin_document(name))
    *parents, key = draw.draw(st.sampled_from(list(field_paths(doc))))
    node = doc
    for step in parents:
        node = node[step]
    node[key] = draw.draw(documents)
    profile = tmp_path / "board.yaml"
    profile.write_text(yaml.safe_dump(doc))
    try:
        Platform.from_profile(str(profile))
    except PmbusSimError:
        pass
