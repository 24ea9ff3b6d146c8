"""The gcd's kernels modulo word-size primes: the primes themselves
(Miller-Rabin), Euclid modulo a prime and the Chinese remainder lift.

Nothing here is loaded until a gcd or a resultant runs, so ``decompose``
or a parse error never compiles it.  Coefficient lists are ints, low degree
first.  The resultant kernel of the connectivity certificate, which also
lifts by :func:`_crt`, lives in :mod:`broughton.bipoly`.
"""

from __future__ import annotations

_PRIMES = []


def _prime(index: int) -> int:
    """The ``index``-th prime below 2**62, counting down from the largest.

    Found on first use and kept, so importing the module costs nothing.
    """
    while len(_PRIMES) <= index:
        n = _PRIMES[-1] - 2 if _PRIMES else (1 << 62) - 1
        while not _is_prime(n):
            n -= 2
        _PRIMES.append(n)
    return _PRIMES[index]


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 37 with the twelve prime bases up to 37,
    which no composite below 3.18e23 passes."""
    d = n - 1
    s = 0
    while not d & 1:
        d >>= 1
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _crt(lift, modulus, image, p):
    """The symmetric residues mod modulus*p that agree with ``lift``
    (symmetric mod ``modulus``) and with ``image`` mod the prime p."""
    inverse = pow(modulus, -1, p)
    combined_modulus = modulus * p
    half = combined_modulus // 2
    out = []
    for h, r in zip(lift, image):
        c = h + modulus * ((r - h) * inverse % p)
        out.append(c - combined_modulus if c > half else c)
    return out
