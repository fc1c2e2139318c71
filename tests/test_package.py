"""The package namespace."""

import importlib

import skeinvol


def test_engine_modules_resolve_to_modules():
    for name in ("skeinvol.bracket", "skeinvol.yokota"):
        assert importlib.import_module(name) is getattr(skeinvol, name.split(".")[1])


def test_exported_names_exist():
    for name in skeinvol.__all__:
        assert getattr(skeinvol, name) is not None
