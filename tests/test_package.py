"""The package's lazy re-exports (PEP 562 module ``__getattr__``)."""

import sys

import pytest

import qmix

EXPORTS = [name for name in qmix.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_its_home_modules_object(name):
    value = getattr(qmix, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("qmix.")
    assert getattr(home, name) is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from qmix import *", namespace)
    assert set(qmix.__all__) <= set(namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(qmix, name)
    assert namespace["__version__"] == qmix.__version__


def test_dir_lists_every_export():
    assert set(qmix.__all__) <= set(dir(qmix))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="qmix"):
        qmix.no_such_name
    assert not hasattr(qmix, "no_such_name")
