"""Exact 2x2 integer arithmetic for torus-bundle monodromies.

The mapping class group of the torus is SL(2, Z), generated by the
right-handed Dehn twists `a` and `b` along two curves meeting once.
Monodromy words are plain strings over {a, b} (positive twists only);
they multiply out, left to right, to integer matrices of determinant 1.
Entries are exact Python ints, with no range limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inputs import is_int

GENERATOR_NAMES = ("a", "b")
_LETTERS = frozenset(GENERATOR_NAMES)


@dataclass(frozen=True, slots=True)
class GroupElement:
    """An element of SL(2, Z) stored as the matrix [[m11, m12], [m21, m22]]."""

    m11: int
    m12: int
    m21: int
    m22: int

    def __post_init__(self) -> None:
        entries = (self.m11, self.m12, self.m21, self.m22)
        if not all(map(is_int, entries)):
            raise ValueError(f"matrix entries must be integers, got {self.to_lists()!r}")
        if float in map(type, entries):
            return self.__init__(*map(int, entries))  # checks the matrix again, as ints
        det = self.m11 * self.m22 - self.m12 * self.m21
        if det != 1:
            raise ValueError(f"determinant must be 1, got {det}")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return compose(self, other)

    def to_lists(self) -> list[list[int]]:
        """JSON form: [[m11, m12], [m21, m22]]."""
        return [[self.m11, self.m12], [self.m21, self.m22]]

    @classmethod
    def from_lists(cls, rows) -> "GroupElement":
        """The matrix ``to_lists`` wrote; the constructor checks its entries."""
        try:
            (m11, m12), (m21, m22) = rows
        except (TypeError, ValueError):
            raise ValueError(f"a matrix must be two rows of two entries, got {rows!r}") from None
        return cls(m11, m12, m21, m22)


IDENTITY = GroupElement(1, 0, 0, 1)

_GENERATORS = {
    "a": GroupElement(1, 1, 0, 1),
    "b": GroupElement(1, 0, -1, 1),
}


def generator(name: str) -> GroupElement:
    """The fixed twist matrix for generator 'a' or 'b' (case-insensitive)."""
    if not isinstance(name, str):
        raise ValueError(f"a generator name must be a string, got {name!r}")
    key = name.lower()
    if key not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r}; expected 'a' or 'b'")
    return _GENERATORS[key]


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Matrix product g*h."""
    return GroupElement(
        g.m11 * h.m11 + g.m12 * h.m21,
        g.m11 * h.m12 + g.m12 * h.m22,
        g.m21 * h.m11 + g.m22 * h.m21,
        g.m21 * h.m12 + g.m22 * h.m22,
    )


def normalize_word(word: str) -> str:
    """Lower-case a monodromy word, rejecting a non-string and letters outside {a, b}."""
    if not isinstance(word, str):
        raise ValueError(f"a monodromy word must be a string, got {word!r}")
    text = word.lower()
    if not set(text) <= _LETTERS:
        bad = next(ch for ch in text if ch not in _LETTERS)
        raise ValueError(f"invalid letter {bad!r} in monodromy word")
    return text


def word_to_matrix(word: str) -> GroupElement:
    """Left-to-right product of generator matrices; the empty word is the identity.

    Folds the word over four plain ints: right-multiplying by ``a`` adds
    the first column to the second, by ``b`` subtracts the second from the
    first, a column operation of determinant 1, so the returned
    ``GroupElement`` checks the determinant once.
    """
    m11, m12, m21, m22 = 1, 0, 0, 1
    for ch in normalize_word(word):
        if ch == "a":
            m12 += m11
            m22 += m21
        else:
            m11 -= m12
            m21 -= m22
    return GroupElement(m11, m12, m21, m22)


def is_identity(g: GroupElement) -> bool:
    return g == IDENTITY
