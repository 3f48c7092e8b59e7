"""The package surface: ``import lattact`` resolves each exported name on
first use from its home module, lists it in ``dir`` and ``*`` imports, and
keeps no copy of it, so a function rebound in its home module is seen."""

import importlib

import pytest

import lattact

EXPORTED = [name for name in lattact.__all__ if name != "__version__"]


def test_dir_lists_every_exported_name():
    assert set(lattact.__all__) <= set(dir(lattact))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lattact import *", namespace)
    assert set(lattact.__all__) <= set(namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(lattact, name), name


def test_each_name_is_its_home_module_attribute():
    for name in EXPORTED:
        obj = getattr(lattact, name)
        home = obj.__module__
        assert home.startswith("lattact."), name
        assert getattr(importlib.import_module(home), name) is obj, name
    # read through the home module every time, never copied into the package
    assert not set(EXPORTED) & set(vars(lattact))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'lattact' has no attribute 'no_such_name'$"):
        lattact.no_such_name
    assert not hasattr(lattact, "no_such_name")


def test_rebinding_in_the_home_module_is_seen(monkeypatch):
    from lattact import group_actions

    original = group_actions.fundamental_data

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(group_actions, "fundamental_data", patched)
        assert lattact.fundamental_data is patched
    assert lattact.fundamental_data is original

