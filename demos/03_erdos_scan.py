"""Scanning powers of two for a missing ternary digit 2.

The conjecture: 2^n written in base 3 contains the digit 2 for every
n > 8.  The scanner keeps 2^n mod 3^40, which holds the low 40 ternary
digits of 2^n, and reads those digits from a lookup table; only the
exponents whose low digits hold no 2 get the exact digits of 2^n.  It
records every digit-2-free exponent it sees.
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
# the scan quadratic; the low-digit filter reads about ten per exponent.
# Lengths at a few exponents:
for n in (10, 100, 1000, 10000):
    print(f"  2^{n} has {len(ternary.power_of_two_ternary(n))} ternary digits")
