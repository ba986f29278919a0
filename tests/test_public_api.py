"""The package's public surface: the names in paretospec.__all__."""

import paretospec


def test_every_public_name_resolves():
    assert len(paretospec.__all__) == len(set(paretospec.__all__))
    for name in paretospec.__all__:
        assert getattr(paretospec, name) is not None


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from paretospec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(paretospec.__all__)


def test_witness_helper_is_gone():
    assert "direct_witness_search" not in paretospec.__all__
    assert not hasattr(paretospec, "direct_witness_search")
    assert not hasattr(paretospec.copositivity, "direct_witness_search")
