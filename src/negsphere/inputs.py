"""Input rules that every constructor and entry point applies: an integer is an
int or an integral float that reads as that int, never a bool, a fraction or a
string; and E(n) # k CP2bar needs n >= 2, so that b2+ > 1, and k >= 0."""

import re


class ValidationError(ValueError):
    """A fibration spec, a plan or an argument breaks an input rule."""


def is_int(value) -> bool:
    """Whether ``value`` is an integer by the package's rule."""
    return type(value) is int or (type(value) is float and value.is_integer())


def as_int(value, what: str, error: type[ValueError] = ValidationError) -> int:
    """``value`` as an ``int``, or ``error`` saying that ``what`` must be an integer."""
    if is_int(value):
        return int(value)
    raise error(f"{what} must be an integer, got {value!r}")


def as_nk(n, k=0) -> tuple[int, int]:
    """``(n, k)`` of E(n) # k CP2bar as ints, by the integer rule and the (n, k) rule."""
    n, k = as_int(n, "n"), as_int(k, "blow-up count")
    if n < 2:
        raise ValidationError(f"n must be at least 2, got {n}")
    if k < 0:
        raise ValidationError(f"blow-up count must be >= 0, got {k}")
    return n, k


def json_key_int(key, what: str) -> int:
    """An integer read from a JSON object key: plain decimals, maybe negative."""
    if isinstance(key, str) and re.fullmatch(r"-?[0-9]+", key):
        return int(key)
    raise ValidationError(f"{what} must be an integer, got {key!r}")


def json_object(data, what: str, keys=None) -> dict:
    """``data`` itself if it is a JSON object with no key outside ``keys``
    (any key when None), else a ValidationError naming the first other key."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in () if keys is None else data:
        if key not in keys:
            raise ValidationError(f"{what} has an unknown key {key!r} (known: {', '.join(keys)})")
    return data
