"""The package's public names: every export resolves, none is listed twice."""

import orthantwalks


def test_every_exported_name_resolves():
    missing = [name for name in orthantwalks.__all__ if not hasattr(orthantwalks, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(orthantwalks.__all__) == len(set(orthantwalks.__all__))


def test_star_import():
    namespace = {}
    exec("from orthantwalks import *", namespace)
    assert set(orthantwalks.__all__) <= set(namespace)
