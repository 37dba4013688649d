import morphsurf


def test_star_import_provides_every_exported_name():
    namespace = {}
    exec("from morphsurf import *", namespace)
    assert set(morphsurf.__all__) <= set(namespace)


def test_exports_are_sorted():
    assert morphsurf.__all__ == sorted(morphsurf.__all__)
