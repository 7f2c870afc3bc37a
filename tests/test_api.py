"""The package's public API: what ``groupwidths`` exports."""

import types

import groupwidths


def test_all_names_resolve_and_none_is_a_submodule():
    assert len(set(groupwidths.__all__)) == len(groupwidths.__all__)
    for name in groupwidths.__all__:
        value = getattr(groupwidths, name)
        assert not isinstance(value, types.ModuleType), name

