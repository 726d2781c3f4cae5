"""Every name a ``repro`` package exports resolves.

A deletion that forgets a re-export (or an ``__all__`` entry) fails
here, not in a user's ``from repro.machine import ...``.
"""

import importlib
import pkgutil

import pytest

import repro

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
