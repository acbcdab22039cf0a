import types

import rck


def test_all_lists_exactly_the_imported_names():
    imported = {
        name
        for name, value in vars(rck).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(rck.__all__) == len(set(rck.__all__))
    assert set(rck.__all__) == imported
