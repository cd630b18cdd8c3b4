import liouwave


def test_every_public_name_resolves_once():
    names = liouwave.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(liouwave, name)]
    assert missing == []


def test_star_import_runs():
    namespace = {}
    exec("from liouwave import *", namespace)
    assert set(liouwave.__all__) <= set(namespace)
