import importlib

import pytest


@pytest.mark.parametrize("module", ["domcore", "domcore.recognize", "domcore.cli"])
def test_star_import_binds_every_name_in_all(module):
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec(f"from {module} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(importlib.import_module(module).__all__)
