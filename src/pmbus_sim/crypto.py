"""CRT-RSA key material, primality testing and gcd-based factor recovery from faulty signatures."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

# Product of the odd primes below 1000: one gcd rejects any n with such a factor.
_SMALL_ODD_PRIMORIAL = math.prod(n for n in range(3, 1000, 2) if all(n % d for d in range(3, math.isqrt(n) + 1, 2)))


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_prp_base2(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters: P = 1, Q = (1 - D) / 4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D shares a proper factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4

    def half(x: int) -> int:
        x %= n
        return (x + n if x % 2 else x) // 2

    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Baillie-PSW: trial division below 1000, else strong base-2 Miller-Rabin plus strong Lucas.

    No composite is known to pass it, and none below 2**64 does.
    """
    if n < 1000:
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    if n % 2 == 0 or math.gcd(n, _SMALL_ODD_PRIMORIAL) != 1:
        return False
    return _strong_prp_base2(n) and _strong_lucas_prp(n)


def next_prime(n: int) -> int:
    """Smallest prime greater than ``n``."""
    if n < 2:
        return 2
    candidate = n + 1 if n % 2 == 0 else n + 2
    while not is_prime(candidate):
        candidate += 2
    return candidate


@dataclass(frozen=True)
class CrtRsaKey:
    p: int
    q: int
    e: int
    d: int
    dp: int
    dq: int
    qinv: int

    @property
    def n(self) -> int:
        return self.p * self.q

    @classmethod
    def from_primes(cls, p: int, q: int, e: int = 65537) -> "CrtRsaKey":
        lam = math.lcm(p - 1, q - 1)
        if math.gcd(e, lam) != 1:
            raise ValueError("e not invertible modulo lcm(p-1, q-1)")
        d = pow(e, -1, lam)
        return cls(p=p, q=q, e=e, d=d, dp=d % (p - 1), dq=d % (q - 1), qinv=pow(q, -1, p))

    @classmethod
    def generate(cls, bits: int, rng: random.Random, e: int = 65537) -> "CrtRsaKey":
        """Deterministic key generation from the supplied RNG."""
        half = bits // 2

        def draw_prime() -> int:
            while True:
                candidate = rng.getrandbits(half) | (1 << (half - 1)) | 1
                candidate = next_prime(candidate)
                if candidate.bit_length() == half and math.gcd(e, candidate - 1) == 1:
                    return candidate

        p = draw_prime()
        while True:
            q = draw_prime()
            if q != p:
                break
        if p < q:
            p, q = q, p
        return cls.from_primes(p, q, e)

    def sign(self, message: int) -> int:
        """Fault-free reference signature via Garner recombination."""
        return crt_branches(self, message)[2]


def crt_combine(sp: int, sq: int, p: int, q: int, qinv: int) -> int:
    h = (qinv * (sp - sq)) % p
    return sq + h * q


@functools.lru_cache(maxsize=256)
def crt_branches(key: CrtRsaKey, message: int) -> tuple[int, int, int]:
    """Fault-free ``(sp, sq, signature)`` of ``message`` under ``key``.

    A pure function of its arguments, memoised because a fault campaign signs
    one message thousands of times; the cache is bounded so that many keys or
    messages cannot grow it without limit.
    """
    sp = pow(message, key.dp, key.p)
    sq = pow(message, key.dq, key.q)
    return sp, sq, crt_combine(sp, sq, key.p, key.q, key.qinv)


def lenstra_recover(n: int, e: int, message: int, sig: int) -> int | None:
    """gcd(sig^e - message, n): a proper factor iff one CRT branch was faulted."""
    g = math.gcd((pow(sig, e, n) - message) % n, n)
    if 1 < g < n:
        return g
    return None
