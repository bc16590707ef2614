"""The package's public names."""

import esoclcp


def test_every_exported_name_resolves_once():
    names = esoclcp.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(esoclcp, name)]
    assert missing == []
