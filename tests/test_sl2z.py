import random

import pytest
from hypothesis import example, given, settings, strategies as st

from negsphere.sl2z import GroupElement, IDENTITY, compose, generator, is_identity, word_to_matrix


# Independent oracle: plain nested-list matrix product, no shared code.
def mat_mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def mat_word(word):
    gens = {"a": [[1, 1], [0, 1]], "b": [[1, 0], [-1, 1]]}
    out = [[1, 0], [0, 1]]
    for ch in word:
        out = mat_mul(out, gens[ch])
    return out


def test_generator_matrices():
    assert generator("a").to_lists() == [[1, 1], [0, 1]]
    assert generator("b").to_lists() == [[1, 0], [-1, 1]]
    assert generator("A") == generator("a")
    assert generator("B") == generator("b")


def test_generator_unknown():
    with pytest.raises(ValueError, match="unknown generator"):
        generator("c")


def test_compose_a_then_b():
    # computed by hand with the independent oracle
    assert mat_word("ab") == [[0, 1], [-1, 1]]
    assert compose(generator("a"), generator("b")).to_lists() == [[0, 1], [-1, 1]]


def test_compose_identity_law():
    g = word_to_matrix("abbaab")
    assert compose(IDENTITY, g) == g
    assert compose(g, IDENTITY) == g


def test_inverse_via_torsion():
    # (ab)^3 * (ab)^3 = (ab)^6 = 1, so (ab)^3 is its own inverse
    g = word_to_matrix("ab" * 3)
    assert is_identity(compose(g, g))


def test_braid_relation():
    assert word_to_matrix("aba") == word_to_matrix("bab")
    assert word_to_matrix("aba").to_lists() == [[0, 1], [-1, 0]]


def test_word_to_matrix_empty():
    assert word_to_matrix("") == IDENTITY


def test_torsion_relation():
    assert is_identity(word_to_matrix("ab" * 6))
    minus_one = GroupElement(-1, 0, 0, -1)
    assert word_to_matrix("ab" * 3) == minus_one


def test_torsion_powers_up_to_50():
    power = IDENTITY
    block = word_to_matrix("ab" * 6)
    for _ in range(50):
        power = compose(power, block)
        assert is_identity(power)


def test_aba_squared_is_ab_cubed():
    aba = word_to_matrix("aba")
    assert compose(aba, aba) == word_to_matrix("ab" * 3)


def test_is_identity():
    assert is_identity(IDENTITY)
    assert not is_identity(word_to_matrix("ab" * 3))
    assert is_identity(word_to_matrix("ab" * 12))


def test_homomorphism_random_pairs():
    rng = random.Random(20240901)
    for _ in range(1000):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 30)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 30)))
        joined = word_to_matrix(u + v)
        assert joined == compose(word_to_matrix(u), word_to_matrix(v))
        assert joined.to_lists() == mat_word(u + v)


@given(st.text(alphabet="ab", max_size=40))
def test_word_matches_oracle_and_det(word):
    g = word_to_matrix(word)
    assert g.to_lists() == mat_word(word)
    assert g.m11 * g.m22 - g.m12 * g.m21 == 1


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError, match="invalid letter"):
        word_to_matrix("abc")


@pytest.mark.parametrize("word", [None, True, ["a", "b"], 5, b"ab"])
def test_a_word_that_is_not_a_string_is_named(word):
    with pytest.raises(ValueError) as info:
        word_to_matrix(word)
    assert str(info.value) == f"a monodromy word must be a string, got {word!r}"


@pytest.mark.parametrize("name", [None, True, ["a"], 0, b"a"])
def test_a_generator_name_that_is_not_a_string_is_named(name):
    with pytest.raises(ValueError) as info:
        generator(name)
    assert str(info.value) == f"a generator name must be a string, got {name!r}"


def test_uppercase_words_accepted():
    assert word_to_matrix("AB") == word_to_matrix("ab")


def test_determinant_enforced():
    with pytest.raises(ValueError, match="determinant"):
        GroupElement(2, 0, 0, 2)


def test_construction_past_64_bits_is_exact():
    big = GroupElement(1, 2**63, 0, 1)
    assert big.to_lists() == [[1, 2**63], [0, 1]]


def test_compose_past_64_bits_is_exact():
    big = GroupElement(1, 2**63 - 1, 0, 1)
    product = compose(big, generator("a"))
    assert product.to_lists() == mat_mul(big.to_lists(), generator("a").to_lists())
    assert product.to_lists()[0][1] == 2**63


def test_serialization_round_trip():
    g = word_to_matrix("abab")
    assert GroupElement.from_lists(g.to_lists()) == g
    # entries are read as JSON integers: an integral float is one, but a
    # bool, a fraction or a numeric string is not
    assert GroupElement.from_lists([[1.0, 0], [0, 1.0]]) == IDENTITY
    for bad in (1.9, True, "1"):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            GroupElement.from_lists([[bad, 0], [0, 1]])
    # anything but two rows of two entries is one ValueError line, not a TypeError
    for bad in (5, None, [[1, 0], 5], [[1, 0], [0, 1, 2]]):
        with pytest.raises(ValueError, match=r"^a matrix must be two rows of two entries, got .*$"):
            GroupElement.from_lists(bad)


def test_word_to_matrix_matches_a_compose_fold():
    rng = random.Random(20261018)
    for _ in range(500):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 120)))
        folded = IDENTITY
        for ch in word:
            folded = compose(folded, generator(ch))
        assert word_to_matrix(word) == folded


def _positive_inverse(word):
    # (ab)^6 = 1, so a^-1 = b(ab)^5 and b^-1 = (ab)^5 a
    inverse = {"a": "b" + "ab" * 5, "b": "ab" * 5 + "a"}
    return "".join(inverse[ch] for ch in reversed(word))


def _leaves_64_bits(rows):
    return any(not -(2**63) <= x < 2**63 for row in rows for x in row)


# a^5 b has trace -3, so its powers grow: this word's entries leave the
# signed 64-bit range
_PAST_64_BITS = "aaaaab" * 50


def test_a_word_that_passes_64_bits_and_multiplies_to_one_is_exact():
    # the word times its positive inverse is the identity, but the entries
    # pass 2^63 on the way
    word = _PAST_64_BITS + _positive_inverse(_PAST_64_BITS)
    product, first = [[1, 0], [0, 1]], None
    for t, ch in enumerate(word, start=1):
        product = mat_mul(product, mat_word(ch))
        if first is None and _leaves_64_bits(product):
            first = t
    assert product == [[1, 0], [0, 1]] and first is not None and first < len(_PAST_64_BITS)
    prefix = word_to_matrix(word[:first]).to_lists()
    assert _leaves_64_bits(prefix) and prefix == mat_word(word[:first])
    assert word_to_matrix(word) == IDENTITY


# powers of a few a^i b blocks, cut at 500 letters: most grow past 64 bits,
# at rates set by the blocks; some, like "ab" (of order 6), stay small
_growing_words = st.builds(
    lambda blocks, power: ("".join("a" * i + "b" for i in blocks) * power)[:500],
    st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(1, 125))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _growing_words,
    _growing_words.map(lambda half: half + _positive_inverse(half)),  # grows, then comes back
    st.text(alphabet="ab", max_size=500),
))
@example(_PAST_64_BITS)
def test_property_fold_matches_a_per_letter_fold(word):
    product = mat_word(word)
    assert word_to_matrix(word).to_lists() == product
    if word == _PAST_64_BITS:
        assert _leaves_64_bits(product)
