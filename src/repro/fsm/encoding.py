"""State encodings: Gray and Johnson.

The paper's worst-case FSMs are an 8-bit binary counter and an 8-bit
Gray counter; encodings matter because they determine the register
Hamming-distance sequence — the very signal the power side channel
carries.  (A Gray counter switches exactly one state bit per step, so
its state register contributes almost no time-varying power, which is
what makes it the hard case.)
"""

from __future__ import annotations

from typing import List

from repro.hdl.wires import mask


def gray_encode(index: int, width: int) -> int:
    """Reflected-binary Gray code of ``index``."""
    if not 0 <= index <= mask(width):
        raise ValueError(f"index {index} does not fit in {width} bits")
    return index ^ (index >> 1)


def gray_decode(code: int, width: int) -> int:
    """Inverse Gray code (prefix XOR from the MSB down)."""
    if not 0 <= code <= mask(width):
        raise ValueError(f"code {code} does not fit in {width} bits")
    index = 0
    accumulator = 0
    for position in range(width - 1, -1, -1):
        accumulator ^= (code >> position) & 1
        index |= accumulator << position
    return index


def johnson_sequence(width: int) -> List[int]:
    """The full period of a ``width``-bit Johnson (twisted-ring) counter.

    It cycles through ``2 * width`` codes: it fills with ones from the
    LSB, then drains them from the LSB.
    """
    fill = [(1 << ones) - 1 for ones in range(width + 1)]
    return fill + [fill[width] ^ low for low in fill[1:width]]
