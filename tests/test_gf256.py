"""Unit and property tests for GF(2^8) arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.gf256 import RIJNDAEL_POLY, gf_inverse, gf_mul, gf_pow

bytes_ = st.integers(min_value=0, max_value=255)


class TestMul:
    def test_fips_worked_example(self):
        # FIPS-197 Section 4.2: {57} * {83} = {c1}.
        assert gf_mul(0x57, 0x83) == 0xC1

    def test_xtime_example(self):
        # {57} * {02} = {ae}.
        assert gf_mul(0x57, 0x02) == 0xAE

    def test_xtime_with_reduction(self):
        # {ae} * {02} overflows and reduces: {47}.
        assert gf_mul(0xAE, 0x02) == 0x47

    def test_multiply_by_zero(self):
        assert gf_mul(0xFF, 0) == 0

    def test_multiply_by_one(self):
        assert gf_mul(0xAB, 1) == 0xAB

    @given(bytes_, bytes_)
    def test_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(bytes_, bytes_, bytes_)
    def test_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(bytes_, bytes_, bytes_)
    def test_distributive_over_add(self, a, b, c):
        # Field addition is XOR of the coefficient vectors.
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @given(bytes_)
    def test_result_is_a_byte(self, a):
        assert 0 <= gf_mul(a, 0xFF) <= 255

    def test_no_zero_divisors(self):
        for a in range(1, 256):
            assert gf_mul(a, 0x03) != 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gf_mul(256, 0)
        with pytest.raises(ValueError):
            gf_mul(0, -1)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            gf_mul(1.5, 2)
        with pytest.raises(TypeError):
            gf_mul(True, 2)


class TestPow:
    def test_power_zero_is_one(self):
        assert gf_pow(0x42, 0) == 1
        assert gf_pow(0, 0) == 1

    def test_power_one_is_identity(self):
        assert gf_pow(0x42, 1) == 0x42

    @given(bytes_)
    def test_square_matches_mul(self, a):
        assert gf_pow(a, 2) == gf_mul(a, a)

    @given(st.integers(min_value=1, max_value=255))
    def test_fermat_order_divides_255(self, a):
        assert gf_pow(a, 255) == 1

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            gf_pow(2, -1)


class TestInverse:
    def test_zero_maps_to_zero(self):
        assert gf_inverse(0) == 0

    def test_one_is_self_inverse(self):
        assert gf_inverse(1) == 1

    @given(st.integers(min_value=1, max_value=255))
    def test_inverse_property(self, a):
        assert gf_mul(a, gf_inverse(a)) == 1

    def test_table_is_an_involution(self):
        table = [gf_inverse(a) for a in range(256)]
        for a in range(256):
            assert table[table[a]] == a

    def test_table_is_a_permutation(self):
        assert sorted(gf_inverse(a) for a in range(256)) == list(range(256))


def test_rijndael_polynomial_value():
    assert RIJNDAEL_POLY == 0x11B
