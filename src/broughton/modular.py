"""The modular gcd, the only code that draws a prime: the primes below
2**30 (Miller-Rabin), Euclid and exact division modulo a prime, rational
reconstruction, and the loop of :func:`_gcd`.  Such a prime and its
residues are single CPython int digits, so the kernels run on the
interpreter's one-digit paths, not its general multi-digit division.

Nothing here is loaded until the integer gcd of
:func:`broughton.unipoly._heuristic_gcd` leaves a gcd unsettled: its
coefficients are past that gcd's cut, or a candidate fails the trial
division.  So the paper's standard pairs of moderate size, a high power
of small coefficients, ``decompose``, ``connectivity`` and a parse error
never compile it.  Coefficient lists are ints, low degree first.
"""

from __future__ import annotations

import itertools
import math

from .unipoly import _divide_both, _exact_quotient, _primitive

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


def _gcd(a, b):
    """The primitive gcd h, up to sign, of the nonzero integer polynomials
    ``a`` = A, nonconstant, and ``b`` = B, with the cofactors A/h and B/h,
    from gcds modulo primes below 2**30.

    Let G be their primitive gcd over the integers (Brown 1971; von zur
    Gathen and Gerhard, *Modern Computer Algebra*, ch. 6).  At each prime
    that divides neither leading coefficient, Euclid gives the monic gcd g
    of the images a and b; G mod p keeps its degree, since lc G divides
    lc A, and divides g, so an unlucky prime gives a g of too high a
    degree.  A g of lower degree than the lift's restarts the lift, one of
    higher degree is dropped, and the rest are combined by the Chinese
    remainder theorem.  The piece lifted is the one of least degree among
    g, a/g and b/g, made monic, as GCDHEU does (Char, Geddes and Gonnet
    1989): a constant g proves A and B coprime, and a high power's
    ``gcd(p, p.derivative())`` lifts a constant cofactor, each at one
    prime.  The images keep the lengths of A and B, so deg g alone fixes
    the piece, and every image of a lift lifts the same one.

    The lift is tried at its first image and then each time the modulus
    has doubled in bit length, by rational reconstruction (:func:`_rational`)
    and the check of :func:`_accept` over the integers, so neither the
    primes' luck nor their size matters.  A try runs Euclid on the whole
    modulus, so trying at each of k primes would cost k**3; doubling keeps
    the tries within a constant factor of the last one.  G and both
    cofactors large and dense pay, since rational reconstruction needs
    twice the bits of an integer lift: at degree 5 with random 1000-bit
    coefficients the gcd draws 128 primes where an integer lift of G drew
    35, and takes 17 ms, not 3.5 ms (median of 10 inputs, 2 CPUs, CPython
    3.11.7).
    """
    least = math.inf  # the least length of g so far, that of the lift
    for p in map(_prime, itertools.count()):
        if not a[-1] % p or not b[-1] % p:
            continue
        images = [c % p for c in a], [c % p for c in b]
        g = _gcd_mod(list(images[0]), images[1], p)
        if len(g) > least:  # an unlucky prime
            continue
        lengths = [len(g)] + [len(f) - len(g) + 1 for f in images]
        piece = lengths.index(min(lengths))  # g, a/g or b/g
        residues = g
        if piece:
            f = images[piece - 1]
            inverse = pow(f[-1], -1, p)
            residues = _quotient_mod([c * inverse % p for c in f], g, p)
        if len(g) < least:
            least, lift, modulus = len(g), residues, p
        else:
            inverse = pow(modulus, -1, p)
            lift = [h + modulus * ((r - h) * inverse % p) for h, r in zip(lift, residues)]
            modulus *= p
            if modulus.bit_length() < 2 * tried:
                continue
        lifted = _rational(lift, modulus)
        answer = None if lifted is None else _accept(a, b, piece, lifted)
        if answer is not None:
            return answer
        tried = modulus.bit_length()


def _accept(a, b, piece, lifted):
    """(h, a/h, b/h) if the lifted ``piece``, 0 for g, 1 for a/g and 2 for
    b/g in :func:`_gcd`, passes over the integers, else None.  A lifted g
    is h if it divides a and b; for a lifted cofactor C of a, h is the
    primitive part of a/C, which must be exact, if h divides b, a/h then
    being C times the content of a/C; likewise for b.  Either way h divides
    a and b and has degree deg g >= deg G, so it is G up to sign."""
    if not piece:
        return _divide_both(lifted, a, b)
    own, other = (a, b) if piece == 1 else (b, a)
    quotient = _exact_quotient(own, lifted)
    if quotient is None:
        return None
    divisor = _primitive(quotient)
    other_cofactor = _exact_quotient(other, divisor)
    if other_cofactor is None:
        return None
    cofactors = [c * (quotient[-1] // divisor[-1]) for c in lifted], other_cofactor
    return divisor, *(cofactors if piece == 1 else cofactors[::-1])


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
