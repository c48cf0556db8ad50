import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import bs3  # noqa: E402

CACHES = [obj for mod in vars(bs3).values()
          if getattr(mod, "__name__", "").startswith("bs3.")
          for obj in vars(mod).values() if hasattr(obj, "cache_clear")]


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with each memoized function of the package empty,
    as every request does, so no test reads what an earlier one cached."""
    for cache in CACHES:
        cache.cache_clear()
