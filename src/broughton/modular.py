"""Kernels modulo primes below 2**30 for the gcd of
:func:`broughton.unipoly._modular_gcd`: the primes (Miller-Rabin), Euclid
and exact division modulo a prime, and the lift.  Such a prime and its
residues are single CPython int digits, so the kernels run on the
interpreter's one-digit paths, not its general multi-digit division.

:func:`_lift` takes a rank, a shape and one monic residue list modulo p
from the gcd at each prime; an unlucky prime gives a lower rank (a gcd
of higher degree).  A higher rank restarts the lift, a lower rank or
another shape is dropped, and the rest are combined by the Chinese
remainder theorem.  The lift is tried at its first image and then each
time the modulus has doubled in bit length: the residues are recovered
by rational reconstruction (von zur Gathen and Gerhard, *Modern Computer
Algebra*, 5.10), and the gcd checks the primitive integer list by
division over the integers, so neither the primes' luck nor their size
matters.  A try runs Euclid on the whole modulus, so trying at each of k
primes would cost k**3; doubling keeps the tries within a constant
factor of the last one.  A constant gcd or cofactor modulo the first
prime lifts at once, and most calls stop there.

Only the gcd draws primes: the squarefree decomposition of
:mod:`broughton.squarefree` is Yun's loop on that gcd.  Nothing here is
loaded until the integer gcd of :func:`broughton.unipoly._heuristic_gcd`
leaves a gcd unsettled: its coefficients are past that gcd's cut, or a
candidate fails the trial division.  So the paper's standard pairs of
moderate size, a high power of small coefficients, ``decompose``,
``connectivity`` and a parse error never compile it.
Coefficient lists are ints, low degree first.  The connectivity
certificate needs no prime: its one resultant is a norm, the determinant
of :mod:`broughton.bipoly` over Q[y].
"""

from __future__ import annotations

import itertools
import math

_PRIMES = []


def _prime(index: int) -> int:
    """The ``index``-th prime below 2**30, counting down from the largest.

    Found on first use and kept, so importing the module costs nothing.
    """
    while len(_PRIMES) <= index:
        n = _PRIMES[-1] - 2 if _PRIMES else (1 << 30) - 1
        while not _is_prime(n):
            n -= 2
        _PRIMES.append(n)
    return _PRIMES[index]


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n with 7 < n < 2**30 (every n that
    :func:`_prime` tests) with the bases 2, 3, 5 and 7, exact there: no
    composite below 3 215 031 751 is a strong pseudoprime to all four
    (Jaeschke 1993)."""
    d = n - 1
    s = 0
    while not d & 1:
        d >>= 1
        s += 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gcd_mod(a, b, p):
    """Monic gcd modulo the prime p by Euclid.

    ``a`` and ``b`` are coefficient lists, low to high, reduced mod p and
    with nonzero leading entries; ``a`` is overwritten.
    """
    while b:
        inverse = pow(b[-1], -1, p)
        b = [c * inverse % p for c in b]
        top = len(b) - 1
        for i in range(len(a) - 1 - top, -1, -1):
            c = a[i + top]
            if c:
                a[i:i + top] = [(x - c * y) % p for x, y in zip(a[i:i + top], b)]
        del a[top:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


def _quotient_mod(a, b, p):
    """Quotient modulo p of ``a`` by the monic ``b``, which divides it."""
    rem = list(a)
    top = len(b) - 1
    low = b[:top]
    quotient = [0] * (len(a) - top)
    for i in range(len(a) - 1 - top, -1, -1):
        c = rem[i + top]
        if c:
            quotient[i] = c
            rem[i:i + top] = [(x - c * y) % p for x, y in zip(rem[i:i + top], low)]
    return quotient


def _lift(image, accept):
    """The first answer ``accept(shape, lifted)`` gives on the primitive
    integer list ``lifted`` of a lift (see the module docstring).
    ``image(p)`` is None for a skipped prime, else ``(rank, shape,
    residues)``, a monic residue list modulo p whose length the rank and
    the shape fix."""
    rank = -1
    for p in map(_prime, itertools.count()):
        found = image(p)
        if found is None:
            continue
        image_rank, shape, residues = found
        if image_rank > rank:
            rank, lift_shape, lift, modulus = image_rank, shape, residues, p
        elif image_rank < rank or shape != lift_shape:
            continue
        else:
            inverse = pow(modulus, -1, p)
            lift = [h + modulus * ((r - h) * inverse % p) for h, r in zip(lift, residues)]
            modulus *= p
            if modulus.bit_length() < 2 * tried:
                continue
        lifted = _rational(lift, modulus)
        if lifted is not None:
            answer = accept(shape, lifted)
            if answer is not None:
                return answer
        tried = modulus.bit_length()


def _rational(residues, modulus):
    """Small fractions congruent to ``residues`` modulo ``modulus``, as the
    primitive integer list of their numerators over one denominator d > 0
    prime to the modulus, or None.

    Each residue is first tried over the denominator found so far: a
    numerator of absolute value at most B = sqrt(modulus / 2) there is
    taken as it is, with no Euclid.  The coefficients of a monic factor
    of an integer polynomial share their denominators, so this is the
    common case.  Otherwise the extended Euclidean algorithm on the
    modulus and the residue, stopped at the first remainder at most B,
    finds the one fraction with numerator and denominator at most B (von
    zur Gathen and Gerhard, *Modern Computer Algebra*, 5.10), and None is
    returned if there is none.  Only the caller's check can tell whether
    the fractions are the ones sought.
    """
    bound = math.isqrt(modulus // 2)
    half = modulus // 2
    numerators = []
    d = 1
    for c in residues:
        n = c * d % modulus
        if n > half:
            n -= modulus
        if abs(n) > bound:
            r0, r1 = modulus, c % modulus
            t0, t1 = 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                t0, t1 = t1, t0 - q * t1
            if t1 < 0:
                r1, t1 = -r1, -t1
            # A common factor of r1 and t1 divides the modulus, and then no
            # fraction is congruent to c.
            if t1 > bound or math.gcd(r1, t1) != 1:
                return None
            numerators = [x * t1 for x in numerators]
            n = r1 * d
            d *= t1
        numerators.append(n)
    content = math.gcd(*numerators)
    return [n // content for n in numerators]
