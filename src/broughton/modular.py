"""Kernels modulo primes below 2**30 for the gcd and the squarefree
decomposition: the primes (Miller-Rabin), Euclid and Yun's algorithm
modulo a prime, and the one lift both share.  Such a prime and its
residues are single CPython int digits, so the kernels run on the
interpreter's one-digit paths, not its general multi-digit division.

:func:`_lift` takes a rank, a shape and monic parts modulo p from its
caller at each prime; an unlucky prime gives a lower rank (a gcd of
higher degree, a radical of lower degree).  A higher rank restarts the
lift, a lower rank or another shape is dropped, and the rest are
combined by the Chinese remainder theorem.  The lift is tried at its
first image and then each time the modulus has doubled in bit length:
each part is recovered by rational reconstruction (von zur Gathen and
Gerhard, *Modern Computer Algebra*, 5.10), and the caller certifies the
primitive integer parts over the integers, so neither the primes' luck
nor their size matters.  A try runs Euclid on the whole modulus, so
trying at each of k primes would cost k**3; doubling keeps the tries
within a constant factor of the last one.  An image with no parts (a
constant gcd, a squarefree polynomial) settles the answer at once, and
most calls stop there, at the first prime.

Nothing here is loaded until a gcd or a squarefree decomposition needs a
prime, that is, until the integer gcds of
:func:`broughton.unipoly._heuristic_gcd` and
:mod:`broughton.squarefree` leave one unsettled: its coefficients are
past that gcd's cut, or a candidate fails the trial division.  A small
input that is not squarefree, such as a high power, no longer loads it:
its parts come from one integer gcd per multiplicity.  So the paper's
standard pairs of moderate size, ``decompose``, ``connectivity`` and a
parse error never compile it.
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


def _yun_mod(a, p):
    """Squarefree decomposition of ``a`` modulo the prime p by Yun's
    algorithm: the monic parts modulo p with their multiplicities, which
    increase.

    ``a`` is reduced mod p, of degree at least 1 and below p, with a
    nonzero leading entry.  Below p the derivative of a nonconstant
    polynomial is nonzero and every multiplicity is a unit, so Yun's
    algorithm is exact over the field of p elements.  The loop keeps
    w = f_k * f_(k+1) * ... and z = sum over those parts of
    (i - k) * f_i' * w / f_i.  The parts are coprime and squarefree, so
    z = c * w' for a constant c exactly when one part is left, of
    multiplicity k + c: the loop stops there instead of taking c gcds with
    a constant result.  A constant gcd(w, z) before that means no part of
    multiplicity k: w stays, and z - w' is the next z, with no quotient and
    no new derivative.  The one-part test is not repeated there, since
    z - w' is a constant times w' only if z is.  A constant gcd(a, a')
    ends it at once: the image is squarefree, one part of multiplicity 1.
    """
    inverse = pow(a[-1], -1, p)
    w = [c * inverse % p for c in a]
    derivative = _derivative_mod(w, p)
    g = _gcd_mod(list(w), derivative, p)
    if len(g) == 1:  # a squarefree image: one part, nothing to divide
        return [(w, 1)]
    w = _quotient_mod(w, g, p)
    dw = _derivative_mod(w, p)
    z = _difference_mod(_quotient_mod(derivative, g, p), dw, p)
    parts = []
    k = 1
    while len(w) > 1:
        c = z[-1] * pow(dw[-1], -1, p) % p if len(z) == len(dw) else 0
        if z == ([x * c % p for x in dw] if c else []):
            parts.append((w, k + c))
            break
        f = _gcd_mod(list(w), z, p)
        while len(f) == 1:  # no part of multiplicity k: w and w' stay
            z = _difference_mod(z, dw, p)
            k += 1
            f = _gcd_mod(list(w), z, p)
        parts.append((f, k))
        w = _quotient_mod(w, f, p)
        dw = _derivative_mod(w, p)
        z = _difference_mod(_quotient_mod(z, f, p), dw, p)
        k += 1
    return parts


def _derivative_mod(a, p):
    """Derivative modulo p of ``a``, whose degree is below p."""
    return [i * c % p for i, c in enumerate(a) if i]


def _difference_mod(a, b, p):
    """a - b modulo p, with no trailing zero."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = [(x - y) % p for x, y in zip(a, b)]
    out.extend(a[len(b):])
    while out and not out[-1]:
        out.pop()
    return out


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
    """The first answer ``accept(shape, parts)`` gives on the primitive
    integer parts of a lift (see the module docstring).  ``image(p)`` is
    None for a skipped prime, else ``(rank, shape, parts)``, the parts
    monic residue lists modulo p."""
    rank = -1
    for p in map(_prime, itertools.count()):
        found = image(p)
        if found is None:
            continue
        image_rank, shape, parts = found
        key = (shape, [len(part) for part in parts])
        if image_rank > rank:
            rank, lift_key, lift, modulus = image_rank, key, parts, p
        elif image_rank < rank or key != lift_key:
            continue
        else:
            inverse = pow(modulus, -1, p)
            lift = [[h + modulus * ((r - h) * inverse % p) for h, r in zip(H, R)]
                    for H, R in zip(lift, parts)]
            modulus *= p
            if modulus.bit_length() < 2 * tried:
                continue
        integers = []
        for part in lift:
            integers.append(_rational(part, modulus))
            if integers[-1] is None:
                break
        else:
            answer = accept(shape, integers)
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
