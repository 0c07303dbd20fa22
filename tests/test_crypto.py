"""CRT-RSA key material and gcd factor recovery, checked against brute force; the
primality test, checked against sympy (a test-only dependency)."""

import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

import pmbus_sim
from pmbus_sim import crypto
from pmbus_sim.crypto import CrtRsaKey, crt_combine, is_prime, lenstra_recover, next_prime

# Strong base-2 pseudoprimes (incl. squares of the Wieferich primes), strong Lucas
# pseudoprimes for Selfridge's parameters, Carmichael numbers, and primes beside them.
PSEUDOPRIMES = (
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281, 74665, 80581,
    1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
    1093**2, 3511**2,
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
    100127, 113573, 115639, 130139,
    561, 1105, 1729, 41041, 825265, 321197185, 5394826801, 232250619601, 9746347772161,
    2**61 - 1, 2**89 - 1, 2**127 - 1, 2**521 - 1, 2**61 + 1, 2**127 + 1, (2**89 - 1) ** 2,
)


def test_from_primes_consistency(small_key):
    k = small_key
    assert k.n == 209
    assert (k.e * k.d) % math.lcm(k.p - 1, k.q - 1) == 1
    assert k.dp == k.d % (k.p - 1) and k.dq == k.d % (k.q - 1)
    assert (k.q * k.qinv) % k.p == 1


def test_sign_verify_roundtrip(small_key):
    for m in range(small_key.n):
        sig = small_key.sign(m)
        assert pow(sig, small_key.e, small_key.n) == m


def test_generate_is_deterministic():
    a = CrtRsaKey.generate(512, random.Random(42))
    b = CrtRsaKey.generate(512, random.Random(42))
    c = CrtRsaKey.generate(512, random.Random(43))
    assert a == b and a != c
    assert sympy.isprime(a.p) and sympy.isprime(a.q) and a.p != a.q
    assert a.n.bit_length() in (511, 512)


def test_crt_combine_matches_direct_exponentiation():
    key = CrtRsaKey.generate(128, random.Random(7))
    for m in (2, 1234, key.n - 5):
        sp = pow(m, key.dp, key.p)
        sq = pow(m, key.dq, key.q)
        assert crt_combine(sp, sq, key.p, key.q, key.qinv) == pow(m, key.d, key.n)


def test_recovery_brute_force_oracle(small_key):
    """Exhaustively check gcd recovery over every possible single-branch fault."""
    k, m = small_key, 42
    truth = k.sign(m)
    assert lenstra_recover(k.n, k.e, m, truth) is None

    checked = 0
    for faulty in range(k.n):
        if faulty == truth:
            continue
        fault_in_q = faulty % k.p == truth % k.p  # mod-p half still correct
        fault_in_p = faulty % k.q == truth % k.q
        recovered = lenstra_recover(k.n, k.e, m, faulty)
        if fault_in_q:
            assert recovered == k.p
            checked += 1
        elif fault_in_p:
            assert recovered == k.q
            checked += 1
        else:
            assert recovered not in (k.p, k.q) or recovered is None
    # every congruence class mod one prime was exercised
    assert checked == (k.q - 1) + (k.p - 1)


def test_recovery_on_generated_key():
    key = CrtRsaKey.generate(256, random.Random(3))
    m = 0xC0FFEE
    truth = key.sign(m)
    sq = pow(m, key.dq, key.q) ^ 1  # fault the mod-q branch
    faulty = crt_combine(pow(m, key.dp, key.p), sq, key.p, key.q, key.qinv)
    # the untouched mod-p branch is what leaks: gcd pulls out p
    assert lenstra_recover(key.n, key.e, m, faulty) == key.p


def test_double_branch_fault_leaks_nothing():
    key = CrtRsaKey.generate(256, random.Random(3))
    m = 0xC0FFEE
    sp = pow(m, key.dp, key.p) ^ 1
    sq = pow(m, key.dq, key.q) ^ 1
    faulty = crt_combine(sp, sq, key.p, key.q, key.qinv)
    assert lenstra_recover(key.n, key.e, m, faulty) is None


def test_is_prime_matches_sympy_below_100k():
    assert [n for n in range(100_001) if is_prime(n)] == list(sympy.primerange(0, 100_001))


def test_bpsw_halves_match_sympy():
    """Each half of the test on its own, below the small-factor gcd that hides most pseudoprimes."""
    from sympy.ntheory.primetest import is_strong_lucas_prp, mr

    odd = [n for n in range(3, 150_000, 2) if math.isqrt(n) ** 2 != n]
    assert [n for n in odd if crypto._strong_prp_base2(n)] == [n for n in odd if mr(n, [2])]
    assert [n for n in odd if crypto._strong_lucas_prp(n)] == [n for n in odd if is_strong_lucas_prp(n)]


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_is_prime_on_pseudoprimes(n):
    assert is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_is_prime_matches_sympy_on_random_odd_numbers(bits):
    rng = random.Random(bits)
    numbers = [rng.getrandbits(bits) | 1 | (1 << (bits - 1)) for _ in range(500)]
    assert [is_prime(n) for n in numbers] == [sympy.isprime(n) for n in numbers]


def test_next_prime_matches_sympy():
    rng = random.Random(256)
    for n in [0, 1, 2, 3, 4, 999, 1000, 7919] + [rng.getrandbits(256) for _ in range(300)]:
        assert next_prime(n) == sympy.nextprime(n), n


def test_seeded_keys_are_unchanged():
    """Keys for seeds 0..99, hashed on the commit that still generated them with sympy."""
    digest = hashlib.sha256()
    for seed in range(100):
        k = CrtRsaKey.generate(512, random.Random(seed))
        digest.update(f"{k.p},{k.q},{k.e},{k.d},{k.dp},{k.dq},{k.qinv}\n".encode())
    assert digest.hexdigest() == "9ece62d1b0a24b2f1fc99b88f93a26b6e5af01128e790444d8f8a5aae94f1b67"


def test_runtime_does_not_import_sympy():
    env = dict(os.environ, PYTHONPATH=str(Path(pmbus_sim.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, pmbus_sim; print('sympy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


BUS_THEN_FIRMWARE = """
import random, sys
from pmbus_sim import (
    CampaignConfig, Chain, CrtRsaKey, Platform, detect, run_overvolt_attack,
    run_power_down_attack, run_undervolt_campaign,
)

assert detect(Platform.from_profile("x11ssl-cf").fabric, 1).candidates
key = CrtRsaKey.generate(512, random.Random(42))
undervolt = run_undervolt_campaign(
    Platform.from_profile("x11ssl-cf", seed=42), key, CampaignConfig(seed=42, max_runs=2)
)
assert len(undervolt.runs) == 2
assert run_overvolt_attack(Platform.from_profile("x11ssl-cf", seed=1)).cpu_status == "bricked"
run_power_down_attack(Platform.from_profile("e3c246d4i-2t"))
print("cryptography" in sys.modules)

platform = Platform.from_profile("x11ssl-cf", seed=42)
cfg = CampaignConfig(seed=42, chain=Chain.KCS_FIRMWARE, max_runs=1)
run_undervolt_campaign(platform, key, cfg)
print(platform.bmc.root_shell, "cryptography" in sys.modules)
"""


def test_bus_attacks_do_not_import_cryptography():
    """Only firmware paths load `cryptography`; it still loads on demand for them."""
    env = dict(os.environ, PYTHONPATH=str(Path(pmbus_sim.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", BUS_THEN_FIRMWARE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split("\n")[:2] == ["False", "True True"]
