import types

import coverspectra


def test_all_is_sorted():
    assert coverspectra.__all__ == sorted(coverspectra.__all__)


def test_all_is_every_public_binding():
    bound = {
        name
        for name, value in vars(coverspectra).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(coverspectra.__all__) == bound


def test_every_exported_name_resolves():
    for name in coverspectra.__all__:
        assert getattr(coverspectra, name) is not None
