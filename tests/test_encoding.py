"""Tests for state encodings."""

from hypothesis import given
from hypothesis import strategies as st

from repro.fsm.encoding import gray_decode, gray_encode, johnson_sequence

indices8 = st.integers(min_value=0, max_value=255)


class TestGray:
    @given(indices8)
    def test_roundtrip(self, i):
        assert gray_decode(gray_encode(i, 8), 8) == i

    @given(st.integers(min_value=0, max_value=254))
    def test_adjacent_codes_differ_in_one_bit(self, i):
        a = gray_encode(i, 8)
        b = gray_encode(i + 1, 8)
        assert bin(a ^ b).count("1") == 1

    def test_wraparound_also_single_bit(self):
        a = gray_encode(255, 8)
        b = gray_encode(0, 8)
        assert bin(a ^ b).count("1") == 1

    def test_is_a_permutation(self):
        codes = [gray_encode(i, 8) for i in range(256)]
        assert sorted(codes) == list(range(256))

    def test_known_prefix(self):
        assert [gray_encode(i, 3) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]


class TestJohnson:
    def test_sequence_length_is_twice_width(self):
        assert len(johnson_sequence(4)) == 8

    def test_four_bit_sequence(self):
        assert johnson_sequence(4) == [
            0b0000, 0b0001, 0b0011, 0b0111, 0b1111, 0b1110, 0b1100, 0b1000,
        ]

    def test_adjacent_codes_single_bit(self):
        codes = johnson_sequence(8)
        n = len(codes)
        for i in range(n):
            a, b = codes[i], codes[(i + 1) % n]
            assert bin(a ^ b).count("1") == 1
