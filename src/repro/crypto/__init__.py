"""Cryptographic substrate: GF(2^8) arithmetic and the AES SBox.

The paper's leakage component stores the AES SBox in a small RAM; this
package builds that SBox from first principles.
"""

from repro.crypto.gf256 import gf_inverse, gf_mul, gf_pow
from repro.crypto.sbox import SBOX, build_sbox

__all__ = [
    "SBOX",
    "build_sbox",
    "gf_mul",
    "gf_pow",
    "gf_inverse",
]
