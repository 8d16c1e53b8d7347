"""The package's public names: every listed name resolves, and each
library module's ``__all__`` is re-exported by ``walklab``."""
import importlib
import pkgutil

import pytest

import walklab

# the command line is an entry point, not part of the library's API
LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(walklab.__path__)
    if info.name not in ("cli", "__main__")
)


def test_package_all_resolves():
    missing = [name for name in walklab.__all__ if not hasattr(walklab, name)]
    assert missing == []


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_module_all_resolves_and_is_reexported(module):
    mod = importlib.import_module(f"walklab.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert [name for name in mod.__all__ if name not in walklab.__all__] == []
    for name in mod.__all__:
        assert getattr(walklab, name) is getattr(mod, name)
