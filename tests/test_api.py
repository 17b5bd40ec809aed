"""The package's public names."""

import hdkg


def test_every_exported_name_resolves():
    missing = [name for name in hdkg.__all__ if not hasattr(hdkg, name)]
    assert not missing, f"names in hdkg.__all__ that do not resolve: {missing}"
    assert len(set(hdkg.__all__)) == len(hdkg.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from hdkg import *", namespace)
    assert set(hdkg.__all__) <= set(namespace)
