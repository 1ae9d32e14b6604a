"""Each test here starts and ends with ``negsphere.fibration``'s one memo, the
tree memo ``_tree_parts``, empty: it sees a fresh process's cache state whatever
ran before it, and leaves none behind for the tests that run after it (the
benchmark's tests count the work a first tree build does, its validation
included)."""

import pytest

from negsphere import fibration


def _empty_memos():
    fibration._tree_parts.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    _empty_memos()
    yield
    _empty_memos()
