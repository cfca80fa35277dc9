"""Digit-vector arithmetic and the digit-2-free scanner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bblab import fst, ternary
from bblab.errors import MalformedTape
from bblab.ternary import (FILTER_DIGITS, FILTER_MODULUS, ScanReport,
                           TernaryNumber, decode_tape_number, has_digit_two,
                           low_digits_to_two, power_of_two_ternary,
                           powers_of_two, scan_erdos)


def test_canonical_form_strips_leading_zeros():
    assert TernaryNumber([1, 0, 0]) == TernaryNumber([1])
    assert len(TernaryNumber([0, 0, 0])) == 1
    assert int(TernaryNumber([0])) == 0


def test_rejects_bad_digits():
    with pytest.raises(ValueError):
        TernaryNumber([])
    with pytest.raises(ValueError):
        TernaryNumber([3])
    with pytest.raises(ValueError):
        TernaryNumber([-1])


def test_from_int_round_trip():
    for v in (0, 1, 2, 3, 8, 81, 1048576):
        assert int(TernaryNumber.from_int(v)) == v
    with pytest.raises(ValueError):
        TernaryNumber.from_int(-1)


def test_digit_order_is_least_significant_first():
    x = TernaryNumber.from_int(11)  # 102 in base 3
    assert list(x) == [2, 0, 1]
    assert x.lsf_str() == "201"
    assert x.msf_str() == "102"


def test_equality_and_hashing():
    a = TernaryNumber.from_int(16)
    b = TernaryNumber([1, 2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != TernaryNumber.from_int(17)
    assert a.__eq__(16) is NotImplemented


def test_doubled_matches_integer_doubling():
    x = TernaryNumber.from_int(1)
    for n in range(1, 60):
        x = x.doubled()
        assert int(x) == 2 ** n


def test_three_doubling_paths_agree():
    """Vector doubling, the schoolbook oracle, and the transducer must
    compute the same digits."""
    x = TernaryNumber.from_int(1)
    for _ in range(200):
        by_vector = x.doubled()
        by_oracle = TernaryNumber(fst.oracle_double(x))
        padded = x.lsf_str() + "0"
        by_fst = TernaryNumber([int(d)
                                for d in fst.double_reverse_ternary(padded)])
        assert by_vector == by_oracle == by_fst
        x = by_vector


def test_powers_of_two_generator():
    values = dict(powers_of_two(12))
    assert int(values[0]) == 1
    assert int(values[12]) == 4096
    assert power_of_two_ternary(12) == values[12]
    with pytest.raises(ValueError):
        power_of_two_ternary(-1)


def test_power_of_two_digits_match_doubling():
    """The generator against a chain of the schoolbook doubling oracle."""
    digits = [1]
    for n, power in powers_of_two(300):
        assert power == TernaryNumber(digits), n
        digits = fst.oracle_double(digits)


def test_has_digit_two():
    assert not has_digit_two(TernaryNumber.from_int(4))      # 11
    assert has_digit_two(TernaryNumber.from_int(2))
    assert not has_digit_two(TernaryNumber.from_int(256))    # 100111


def test_scan_finds_exactly_0_2_8_up_to_1000():
    report = scan_erdos(1000)
    assert report.free_exponents == [0, 2, 8]
    assert report.counterexample is None
    assert report.digit_lengths[8] == 6
    assert report.bound == 1000


def test_scan_counterexample_is_smallest_free_exponent_above_8():
    report = ScanReport(bound=10, free_exponents=[0, 2, 8, 9, 10])
    assert report.counterexample == 9
    assert "counterexample" in report.to_dict()


def test_decode_tape_number():
    assert int(decode_tape_number("201##")) == 11
    assert int(decode_tape_number("###")) == 0
    assert int(decode_tape_number("")) == 0
    with pytest.raises(MalformedTape):
        decode_tape_number("20#1")
    with pytest.raises(MalformedTape):
        decode_tape_number("2x1")


def test_decode_with_custom_blank():
    assert int(decode_tape_number("12.", blank=".")) == 7


@given(st.integers(min_value=0, max_value=10 ** 30))
@settings(max_examples=200, deadline=None)
def test_property_int_round_trip(v):
    assert int(TernaryNumber.from_int(v)) == v


@given(st.integers(min_value=0, max_value=10 ** 30))
@settings(max_examples=200, deadline=None)
def test_property_doubling(v):
    assert int(TernaryNumber.from_int(v).doubled()) == 2 * v


def _filter_agrees(n):
    """The scan filter on 2^n mod 3^FILTER_DIGITS against the exact digits
    of 2^n: a 2 among the low digits proves a 2 in 2^n, and below
    3^FILTER_DIGITS (n < 64) the residue is 2^n, so the two agree."""
    digits = power_of_two_ternary(n).digits
    exact = has_digit_two(TernaryNumber(digits))
    read = low_digits_to_two(pow(2, n, FILTER_MODULUS))
    if read:
        assert exact, n
        low = digits[:FILTER_DIGITS]
        assert 2 in low[:read] and 2 not in low[:read - 10], n
    if 2 ** n < FILTER_MODULUS:
        assert bool(read) == exact, n


def test_filter_reads_whole_chunks_of_the_low_digits():
    # one digit 2 at position i is found in chunk i // 10 of four
    for i in range(FILTER_DIGITS):
        assert low_digits_to_two(2 * 3 ** i) == (i // 10 + 1) * 10
    assert low_digits_to_two(2 * 3 ** FILTER_DIGITS) == 0
    assert low_digits_to_two(FILTER_MODULUS - 1) == 10   # all digits 2
    assert low_digits_to_two((FILTER_MODULUS - 1) // 2) == 0   # all 1


def test_scan_filter_agrees_with_exact_digits_to_2000():
    assert 2 ** 63 < FILTER_MODULUS < 2 ** 64
    for n in range(2001):
        _filter_agrees(n)


@given(st.integers(min_value=0, max_value=10 ** 5))
@settings(max_examples=100, deadline=None)
def test_property_scan_filter_agrees_with_exact_digits(n):
    _filter_agrees(n)


def test_scan_matches_plain_integer_reference():
    """Free exponents and their digit lengths from plain Python integers."""
    free, lengths = [], {}
    for n in range(3001):
        value, length = 2 ** n, 0
        while value:
            value, digit = divmod(value, 3)
            length += 1
            if digit == 2:
                break
        else:
            free.append(n)
            lengths[n] = length
    report = scan_erdos(3000)
    assert report.free_exponents == free == [0, 2, 8]
    assert report.digit_lengths == lengths == {0: 1, 2: 2, 8: 6}


def test_scan_digit_ops_counts_digits_examined():
    # 2^0 = 1 passes the filter (all FILTER_DIGITS low digits read) and
    # the exact check (one digit); 2^1 = 2 shows a 2 in the first chunk
    assert scan_erdos(0).digit_ops == FILTER_DIGITS + 1
    assert scan_erdos(1).digit_ops == FILTER_DIGITS + 1 + 10
    # every exponent's count from its residue taken by pow(), so the
    # scan's incremental residue is right at each n
    expected = 0
    for n in range(3001):
        read = low_digits_to_two(pow(2, n, FILTER_MODULUS))
        expected += read or FILTER_DIGITS + len(power_of_two_ternary(n))
    assert scan_erdos(3000).digit_ops == expected
