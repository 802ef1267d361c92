"""The exported names resolve, so ``from hkel import *`` keeps working."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["hkel", "hkel.picard"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace = {}
    exec("from hkel import *", namespace)
    import hkel

    assert set(hkel.__all__) <= set(namespace)
