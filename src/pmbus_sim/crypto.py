"""CRT-RSA key material and gcd-based factor recovery from faulty signatures."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import sympy


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
                candidate = int(sympy.nextprime(candidate))
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
