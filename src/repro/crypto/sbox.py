"""The AES substitution box (SBox) used by the leakage component.

The paper's side-channel leakage component stores the AES SBox in a
2^8-entry RAM and feeds it ``state XOR Kw``.  This module builds the
SBox from first principles — multiplicative inversion in GF(2^8)
followed by the AES affine transformation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.crypto.gf256 import BYTE_MASK, gf_inverse

#: Constant added by the AES affine transformation.
AFFINE_CONSTANT = 0x63

#: Bit rotations used by the affine transformation: b ^ rotl(b, 1..4).
AFFINE_ROTATIONS: Tuple[int, ...] = (1, 2, 3, 4)


def _rotl8(value: int, amount: int) -> int:
    """Rotate an 8-bit value left by ``amount`` bits."""
    amount %= 8
    return ((value << amount) | (value >> (8 - amount))) & BYTE_MASK


def affine_transform(value: int) -> int:
    """Apply the AES affine map over GF(2) to one byte.

    ``s = b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63``
    """
    if not 0 <= value <= BYTE_MASK:
        raise ValueError(f"value must be in [0, 255], got {value}")
    result = value
    for amount in AFFINE_ROTATIONS:
        result ^= _rotl8(value, amount)
    return result ^ AFFINE_CONSTANT


def sbox_entry(value: int) -> int:
    """Compute one SBox entry: affine(inverse(value))."""
    return affine_transform(gf_inverse(value))


def build_sbox() -> List[int]:
    """Build the full 256-entry AES SBox from first principles."""
    return [sbox_entry(value) for value in range(256)]


#: The AES SBox, generated once at import time.
SBOX: Tuple[int, ...] = tuple(build_sbox())

#: First eight entries of the FIPS-197 table, used as an import-time
#: sanity anchor (the test suite checks the complete table).
_FIPS_197_PREFIX = (0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5)

if SBOX[:8] != _FIPS_197_PREFIX:  # pragma: no cover - construction bug guard
    raise AssertionError("generated AES SBox does not match FIPS-197")
