"""Scanning powers of two for a missing ternary digit 2.

The conjecture: 2^n written in base 3 contains the digit 2 for every
n > 8.  The low k ternary digits of 2^n are those of 2^n mod 3^k, which
repeats with period 2 * 3^(k-1) in n.  So the scanner walks classes of
exponents rather than exponents: a class whose low k digits hold no 2
splits into three at digit k, and only those without a 2 there go on.
A class whose least member has had all its digits read is a
digit-2-free exponent, which the scan records.
"""

from bblab import ternary

report = ternary.scan_erdos(10_000)
print(f"scanned n = 0..{report.bound} "
      f"({report.digit_ops:,} digits examined, "
      f"{report.elapsed_seconds:.2f}s)")
print(f"digit-2-free exponents: {report.free_exponents}")
print(f"counterexample above 8: {report.counterexample}")

for n in report.free_exponents:
    x = ternary.power_of_two_ternary(n)
    print(f"  2^{n} = {int(x)} = {x.msf_str()} (base 3)")

# The digits of 2^n grow linearly in n, so reading them all would make
# the scan quadratic; the walk reads one digit per class it tests, and
# about two classes in three go on, so it reads far fewer digits than
# there are exponents.
# Lengths at a few exponents:
for n in (10, 100, 1000, 10000):
    print(f"  2^{n} has {len(ternary.power_of_two_ternary(n))} ternary digits")
