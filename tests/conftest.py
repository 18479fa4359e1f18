import sys

import pytest


def clear_qsym_caches() -> None:
    """Empty every functools.lru_cache defined in a qsym module, found by its
    cache_info attribute as the benchmark harness finds them."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qsym" or name.startswith("qsym.")):
            continue
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", "").startswith("qsym"):
                obj.cache_clear()


@pytest.fixture
def cold_caches():
    """Start the test with every qsym cache empty; the fixture value clears
    them again when called."""
    clear_qsym_caches()
    return clear_qsym_caches
