"""Every name a ``repro`` package exports resolves, and the built-in
partitioners and topologies are the ones the README names.

A deletion that forgets a re-export (or an ``__all__`` entry) fails
here, not in a user's ``from repro.machine import ...``.
"""

import importlib
import pathlib
import pkgutil
import re

import pytest

import repro
from repro.machine.topology import _TOPOLOGIES
from repro.partitioners import available_partitioners

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names unbound: {missing}"


def test_the_walk_found_the_packages():
    assert {"repro.machine", "repro.obs", "repro.adapt", "repro.serve"} <= set(PACKAGES)


def readme_names(column: str) -> list[str]:
    """The first-column names of the README table headed by ``column``."""
    section = README.read_text().split("\n## Partitioners and topologies\n", 1)[1]
    table = section.split("\n## ", 1)[0].split(f"\n| {column} |", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", table, flags=re.M)


class TestBuiltinSurface:
    """A built-in partitioner or topology stays only while something
    outside the tests uses it: re-adding one means adding its README row,
    and the consumer that row names."""

    def test_partitioners_match_readme_table(self):
        assert available_partitioners() == ["BLOCK", "LOAD", "RCB", "RSB"]
        assert readme_names("partitioner") == available_partitioners()

    def test_topologies_match_readme_table(self):
        assert set(_TOPOLOGIES) == {"full", "hypercube"}
        assert sorted(readme_names("topology")) == sorted(_TOPOLOGIES)
