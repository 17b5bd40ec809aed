"""The package's public names."""

import hdkg
import hdkg.sim

PACKAGES = (hdkg, hdkg.sim)


def test_every_exported_name_resolves():
    for package in PACKAGES:
        missing = [name for name in package.__all__ if not hasattr(package, name)]
        assert not missing, (
            f"names in {package.__name__}.__all__ that do not resolve: {missing}")
        assert len(set(package.__all__)) == len(package.__all__)


def test_star_import_binds_every_exported_name():
    for package in PACKAGES:
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace), package.__name__
