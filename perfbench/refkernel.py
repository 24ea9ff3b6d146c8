"""The benchmark-owned reference kernel that op latencies are divided by.

Two fixed Fraction workloads back to back: products of small Fractions
drawn in a scattered order from a table of a few MiB (larger than the
caches), and a sum of products of Fractions with numerators of several
hundred bits, whose denominators grow to thousands of bits.  Together
they track an op's slowdown on a shared host better than a kernel that
fits in L1 and uses only machine-size integers: the first part tracks the
memory-bound ops, the second the big-integer ones.  It is fixed; no
change to the package moves it.
"""

from fractions import Fraction

_TABLE = tuple(Fraction(3 * k + 1, 7 * k + 2) for k in range(30000))
_WIDE = tuple(Fraction(3 ** (300 + k) + k, 7 ** (200 + k) + 1) for k in range(64))


def ref_kernel() -> Fraction:
    size = len(_TABLE)
    acc = Fraction(0)
    for i in range(0, size, 97):
        acc += _TABLE[i] * _TABLE[i * 7919 % size]
    wide = Fraction(0)
    for i in range(20):
        wide += _WIDE[i] * _WIDE[i * 17 % 64]
    return acc + wide
