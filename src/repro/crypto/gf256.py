"""Arithmetic in the finite field GF(2^8) used by the AES SBox.

The AES substitution table is built from multiplicative inversion in
GF(2^8) modulo the Rijndael polynomial ``x^8 + x^4 + x^3 + x + 1``
(0x11B), followed by an affine transformation over GF(2).  The paper's
side-channel leakage component stores this SBox in RAM; generating it
from first principles (rather than hard-coding the table) lets the test
suite validate the construction against FIPS-197.

All functions operate on Python integers in ``[0, 255]``.
"""

from __future__ import annotations

#: The Rijndael reduction polynomial x^8 + x^4 + x^3 + x + 1.
RIJNDAEL_POLY = 0x11B

#: Mask selecting the low eight bits of a field element.
BYTE_MASK = 0xFF


def _check_byte(value: int, name: str = "value") -> None:
    """Raise ``ValueError`` unless ``value`` is an int in [0, 255]."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not 0 <= value <= BYTE_MASK:
        raise ValueError(f"{name} must be in [0, 255], got {value}")


def gf_mul(a: int, b: int) -> int:
    """Multiply two GF(2^8) elements modulo the Rijndael polynomial.

    Implemented with the standard shift-and-reduce ("Russian peasant")
    loop so the reduction polynomial is applied explicitly.
    """
    _check_byte(a, "a")
    _check_byte(b, "b")
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= RIJNDAEL_POLY
        b >>= 1
    return product & BYTE_MASK


def gf_pow(a: int, exponent: int) -> int:
    """Raise ``a`` to ``exponent`` by square-and-multiply.

    ``a ** 0`` is 1 by convention, including for ``a == 0``.
    """
    _check_byte(a, "a")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    result = 1
    base = a
    while exponent:
        if exponent & 1:
            result = gf_mul(result, base)
        base = gf_mul(base, base)
        exponent >>= 1
    return result


def gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8), with the AES convention inv(0) = 0.

    Uses Fermat's little theorem for the 255-element multiplicative
    group: ``a^-1 = a^(2^8 - 2) = a^254``.
    """
    _check_byte(a, "a")
    if a == 0:
        return 0
    return gf_pow(a, 254)
