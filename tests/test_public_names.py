"""Every name a pseudolat module lists in ``__all__`` must exist in it.

``import pseudolat`` does not read ``__all__``, so an entry left behind when
its function is deleted fails only a star import.
"""

import importlib
import pkgutil

import pytest

import pseudolat

MODULES = sorted(m.name for m in pkgutil.iter_modules(pseudolat.__path__, "pseudolat."))


def test_every_module_found():
    assert "pseudolat.localization" in MODULES and "pseudolat.geometry" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
