"""Helpers shared by the test modules: exact-bit pins of enclosures."""


def hex_ends(iv) -> tuple:
    return iv.lo.hex(), iv.hi.hex()


def assert_pinned(iv, pin: tuple, before: tuple) -> None:
    """``iv`` has the hex ends ``pin``, which nest in the earlier pin."""
    assert hex_ends(iv) == pin
    lo, hi = map(float.fromhex, pin)
    old_lo, old_hi = map(float.fromhex, before)
    assert old_lo <= lo and hi <= old_hi
