"""Exact 2x2 integer arithmetic for torus-bundle monodromies.

The mapping class group of the torus is SL(2, Z), generated by the
right-handed Dehn twists `a` and `b` along two curves meeting once.
Monodromy words are plain strings over {a, b} (positive twists only);
they multiply out, left to right, to integer matrices of determinant 1.

Entries must stay inside the signed 64-bit range; any step that would
leave it raises instead of silently producing a huge number.  A word is
checked at checkpoints spaced by how far its entries are from the limit,
which finds the same first step as a check after every letter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inputs import is_int

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
        entries = (self.m11, self.m12, self.m21, self.m22)
        if not all(map(is_int, entries)):
            raise ValueError(f"matrix entries must be integers, got {self.to_lists()!r}")
        if float in map(type, entries):
            return self.__init__(*map(int, entries))  # checks the matrix again, as ints
        _check_int64(entries)
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
    """Matrix product g*h; raises OverflowError if an entry leaves 64 bits."""
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
    first, a column operation of determinant 1.  Every step keeps all four
    entries inside 64 bits, else OverflowError at the first step that
    leaves them; the returned ``GroupElement`` checks the determinant once.

    The range is checked at checkpoints only.  A letter at most doubles
    the largest |entry|, so after a checked step whose largest |entry| has
    bit length b, the next 62 - b letters keep every entry below 2^62 and
    need no check; the letter after them is checked.  So the first step
    that leaves 64 bits is always a checked one.
    """
    text = normalize_word(word)
    m11, m12, m21, m22 = 1, 0, 0, 1
    start, end = 0, len(text)
    while start < end:
        bits = max(abs(m11), abs(m12), abs(m21), abs(m22)).bit_length()
        stop = min(end, start + max(1, 63 - bits))  # 62 - bits unchecked, then one checked
        for ch in text[start:stop]:
            if ch == "a":
                m12 += m11
                m22 += m21
            else:
                m11 -= m12
                m21 -= m22
        if not (INT64_MIN <= m11 <= INT64_MAX and INT64_MIN <= m12 <= INT64_MAX
                and INT64_MIN <= m21 <= INT64_MAX and INT64_MIN <= m22 <= INT64_MAX):
            _check_int64((m11, m12, m21, m22))
        start = stop
    return GroupElement(m11, m12, m21, m22)


def is_identity(g: GroupElement) -> bool:
    return g == IDENTITY
