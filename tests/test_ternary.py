"""Digit-string arithmetic and the digit-2-free scanner."""

import ast
import bisect
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bblab
from bblab import fst, machines, search, ternary
from bblab.errors import MalformedTape
from bblab.ternary import (ScanReport, TernaryNumber, decode_tape_number,
                           has_digit_two, power_of_two_ternary, powers_of_two,
                           scan_erdos)


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


@pytest.mark.parametrize("bad", [[10], [3], [-1], [], "", "12x"])
def test_rejects_non_digits(bad):
    with pytest.raises(ValueError):
        TernaryNumber(bad)


def test_digit_string_constructor():
    x = TernaryNumber("201")
    assert x == TernaryNumber.from_int(11)
    assert TernaryNumber("2010") == x and TernaryNumber("000").lsf_str() == "0"
    assert x.digits == (2, 0, 1) and isinstance(x.digits, tuple)
    assert TernaryNumber(np.array([2, 0, 1], dtype=np.int16)) == x


@pytest.mark.parametrize("bad", ["", "3", "1_2", " 12", "-1", "+1", "12x"])
def test_lsf_to_int_rejects_what_int_would_accept_or_misread(bad):
    with pytest.raises(ValueError):
        ternary.lsf_to_int(bad)


def test_lsf_to_int_across_chunk_boundaries():
    for v in (0, 1, 3 ** 639, 3 ** 640 - 1, 3 ** 640, 3 ** 1280 + 7,
              2 ** 5000 - 1):
        assert ternary.lsf_to_int(TernaryNumber.from_int(v).lsf_str()) == v
    assert ternary.lsf_to_int("1" + "0" * 700) == 1
    assert ternary.lsf_to_int("0" * 700 + "1") == 3 ** 700


@pytest.fixture
def int_digit_limit_640():
    """The lowest limit CPython lets a program set on int <-> str
    conversion, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int <-> str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_int_of_long_numbers_under_the_lowest_digit_limit(int_digit_limit_640):
    assert int(TernaryNumber.from_int(3 ** 5000)) == 3 ** 5000


def test_verify_checkpoints_under_the_lowest_digit_limit(int_digit_limit_640):
    """2^1015 is the first power with more than 640 ternary digits."""
    report = search.verify_checkpoints(machines.builtin_m54(), 1100)
    assert report.checked == 1101


def test_only_simcheck_imports_numpy():
    importers = set()
    for path in pathlib.Path(bblab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"simcheck.py"}


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


def _plain_free(n):
    """Digit length of 2**n from plain integer division, or None at the
    first digit 2."""
    value, length = 2 ** n, 0
    while value:
        value, digit = divmod(value, 3)
        length += 1
        if digit == 2:
            return None
    return length


def _plain_scan(n_max):
    lengths = {n: _plain_free(n) for n in range(n_max + 1)}
    return {n: length for n, length in lengths.items() if length is not None}


def test_scan_matches_plain_integer_reference():
    """Free exponents and their digit lengths from plain Python integers."""
    lengths = _plain_scan(3000)
    report = scan_erdos(3000)
    assert report.free_exponents == list(lengths) == [0, 2, 8]
    assert report.digit_lengths == lengths == {0: 1, 2: 2, 8: 6}


def test_scan_matches_plain_reference_at_every_bound_to_300():
    # the walk prunes classes on n_max, so every bound is an edge case
    for n_max in range(301):
        lengths = _plain_scan(n_max)
        report = scan_erdos(n_max)
        assert report.free_exponents == list(lengths), n_max
        assert report.digit_lengths == lengths, n_max


@given(st.integers(min_value=0, max_value=10 ** 5))
@settings(max_examples=100, deadline=None)
def test_property_scan_decides_the_bound_itself(n):
    assert (n in scan_erdos(n).free_exponents) == (_plain_free(n) is not None)


def test_scan_to_a_million():
    report = scan_erdos(10 ** 6)
    assert report.free_exponents == [0, 2, 8]
    assert report.digit_lengths == {0: 1, 2: 2, 8: 6}


def test_scan_digit_ops_counts_digits_examined():
    # n_max = 0: digit 0 of 2^0 = 1; 2^0 is done and 0 + P_1 = 2 > 0
    assert scan_erdos(0).digit_ops == 1
    # n_max = 1: also digit 0 of 2^1 = 2, a 2, so the odd class ends
    assert scan_erdos(1).digit_ops == 2
    # n_max = 8 (base 3, most significant first): digit 0 of 2^0 and 2^1;
    # from 2^0's class, 0 + P_1 = 2, 0 + 2 P_1 = 4 and 0 + P_2 = 6; digit 1
    # of 2^2 = 11, free with 2 digits, and of 2^4 = 121; digits 2 and 3 of
    # 2^6 = 2101; from 2^2's class, 2 + P_2 = 8 and digits 2..5 of
    # 2^8 = 100111, free
    assert scan_erdos(8).digit_ops == 2 + 2 + 2 + 4


def _low_digits_free(m, k):
    value = 2 ** m % 3 ** k
    while value:
        value, digit = divmod(value, 3)
        if digit == 2:
            return False
    return True


def test_scan_digit_ops_counts_every_class_to_test_at_every_bound_to_300():
    # digit k of 2^m is read once for each m <= n_max that is the least
    # member of its class mod P_(k+1) = 2 * 3^k and whose k low digits hold
    # no 2, unless 2^m < 3^k, whose digits were all read at a lower level.
    # A walk that skips a class reads fewer, whatever the classes hold.
    tested = sorted(m for k in range(300) for m in range(min(301, 2 * 3 ** k))
                    if 3 ** k <= 2 ** m and _low_digits_free(m, k))
    for n_max in range(301):
        assert scan_erdos(n_max).digit_ops == bisect.bisect_right(
            tested, n_max), n_max


def test_scan_deepest_digit_at_every_bound_to_300():
    # every power 2^n, n <= n_max, is read up to its first digit 2, or to
    # its last digit if it has none, and no further
    deepest = 0
    for n_max in range(301):
        digits = power_of_two_ternary(n_max).lsf_str()
        deepest = max(deepest, digits.find("2") if "2" in digits
                      else len(digits) - 1)
        assert scan_erdos(n_max).deepest_digit == deepest, n_max
