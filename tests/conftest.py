"""Each test here starts and ends with ``negsphere.fibration``'s memos empty:
it sees a fresh process's cache state whatever ran before it, and leaves none
behind for the tests that run after it (the benchmark's tests count the work
a first build and a first validation do)."""

import pytest

from negsphere import fibration


def _empty_memos():
    fibration._validate.cache_clear()
    fibration._tree_parts.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    _empty_memos()
    yield
    _empty_memos()
