import sma_bimorph


def test_every_public_name_resolves():
    missing = [name for name in sma_bimorph.__all__ if not hasattr(sma_bimorph, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from sma_bimorph import *", namespace)
    assert set(sma_bimorph.__all__) <= set(namespace)
