import types

import nhladder


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from nhladder import *", namespace)
    for name in nhladder.__all__:
        assert namespace[name] is getattr(nhladder, name)


def test_every_public_import_is_exported():
    public = {name for name, value in vars(nhladder).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(nhladder.__all__)
