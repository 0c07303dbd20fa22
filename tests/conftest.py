import importlib.resources

import pytest
import yaml

from pmbus_sim import Platform
from pmbus_sim.crypto import CrtRsaKey


@pytest.fixture
def x11():
    return Platform.from_profile("x11ssl-cf", seed=0)


@pytest.fixture
def x12():
    return Platform.from_profile("x12dpi-nt6", seed=0)


@pytest.fixture
def asrock():
    return Platform.from_profile("e3c246d4i-2t", seed=0)


@pytest.fixture
def edited_board(tmp_path):
    """Build a copy of a built-in profile whose YAML document ``edit(doc)`` changed first.

    A board with other jumper settings or other values is another profile, so
    tests that need one write it to ``tmp_path / "board.yaml"`` and load it
    from there; a second call in one test rewrites that file.
    """

    def build(name: str, edit) -> Platform:
        builtin = importlib.resources.files("pmbus_sim").joinpath(f"profiles/{name}.yaml")
        doc = yaml.safe_load(builtin.read_text())
        edit(doc)
        path = tmp_path / "board.yaml"
        path.write_text(yaml.safe_dump(doc))
        return Platform.from_profile(str(path))

    return build


@pytest.fixture(scope="session")
def small_key():
    return CrtRsaKey.from_primes(11, 19, e=7)
