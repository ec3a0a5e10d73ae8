import toporeg


def test_every_public_name_resolves():
    assert len(set(toporeg.__all__)) == len(toporeg.__all__)
    for name in toporeg.__all__:
        assert getattr(toporeg, name, None) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from toporeg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(toporeg.__all__)

