"""Exact 2x2 integer arithmetic for torus-bundle monodromies.

The mapping class group of the torus is SL(2, Z), generated by the
right-handed Dehn twists `a` and `b` along two curves meeting once.
Monodromy words are plain strings over {a, b} (positive twists only);
they multiply out, left to right, to integer matrices of determinant 1.

Entries must stay inside the signed 64-bit range; any step that would
leave it raises instead of silently producing a huge number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plumbing import _is_json_int

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

GENERATOR_NAMES = ("a", "b")
_LETTERS = frozenset(GENERATOR_NAMES)


def _check_int64(entries) -> None:
    for entry in entries:
        if not INT64_MIN <= entry <= INT64_MAX:
            raise OverflowError(f"matrix entry {entry} exceeds the signed 64-bit range")


@dataclass(frozen=True, slots=True)
class GroupElement:
    """An element of SL(2, Z) stored as the matrix [[m11, m12], [m21, m22]]."""

    m11: int
    m12: int
    m21: int
    m22: int

    def __post_init__(self) -> None:
        _check_int64((self.m11, self.m12, self.m21, self.m22))
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
        """The matrix ``to_lists`` wrote; an entry is an int or an integral float."""
        (m11, m12), (m21, m22) = rows
        if not all(map(_is_json_int, (m11, m12, m21, m22))):
            raise ValueError(f"matrix entries must be integers, got {rows!r}")
        return cls(int(m11), int(m12), int(m21), int(m22))


IDENTITY = GroupElement(1, 0, 0, 1)

_GENERATORS = {
    "a": GroupElement(1, 1, 0, 1),
    "b": GroupElement(1, 0, -1, 1),
}


def generator(name: str) -> GroupElement:
    """The fixed twist matrix for generator 'a' or 'b' (case-insensitive)."""
    key = str(name).lower()
    if key not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r}; expected 'a' or 'b'")
    return _GENERATORS[key]


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Matrix product g*h; raises OverflowError if an entry leaves 64 bits."""
    return GroupElement(
        g.m11 * h.m11 + g.m12 * h.m21,
        g.m11 * h.m12 + g.m12 * h.m22,
        g.m21 * h.m11 + g.m22 * h.m21,
        g.m21 * h.m12 + g.m22 * h.m22,
    )


def normalize_word(word: str) -> str:
    """Lower-case a monodromy word, rejecting letters outside {a, b}."""
    text = str(word).lower()
    if not set(text) <= _LETTERS:
        bad = next(ch for ch in text if ch not in _LETTERS)
        raise ValueError(f"invalid letter {bad!r} in monodromy word")
    return text


def word_to_matrix(word: str) -> GroupElement:
    """Left-to-right product of generator matrices; the empty word is the identity.

    Folds the word over four plain ints: right-multiplying by ``a`` adds
    the first column to the second, by ``b`` subtracts the second from the
    first.  Every step is checked like a ``GroupElement``: all four
    entries inside 64 bits (else OverflowError at the first step that
    leaves them) and determinant 1.
    """
    m11, m12, m21, m22 = 1, 0, 0, 1
    for ch in normalize_word(word):
        if ch == "a":
            m12 += m11
            m22 += m21
        else:
            m11 -= m12
            m21 -= m22
        if not (INT64_MIN <= m11 <= INT64_MAX and INT64_MIN <= m12 <= INT64_MAX
                and INT64_MIN <= m21 <= INT64_MAX and INT64_MIN <= m22 <= INT64_MAX):
            _check_int64((m11, m12, m21, m22))
        if m11 * m22 - m12 * m21 != 1:
            raise ValueError(f"determinant must be 1, got {m11 * m22 - m12 * m21}")
    return GroupElement(m11, m12, m21, m22)


def is_identity(g: GroupElement) -> bool:
    return g == IDENTITY
