"""CPU supply-voltage regimes, fault injection statistics and persistence."""

import random

import pytest
from hypothesis import given, strategies as st

from pmbus_sim import protocol as pm
from pmbus_sim.cpu import Cpu, CpuStatus, FaultModel, FaultySignature
from pmbus_sim.crypto import CrtRsaKey, crt_branches
from pmbus_sim.errors import CpuUnavailable, OutOfRange
from pmbus_sim.protocol import Direction, Transaction

KEY = CrtRsaKey.generate(128, random.Random(99))
ONE_BRANCH = (frozenset({"p"}), frozenset({"q"}))  # the faults the gcd recovery can exploit


def test_fault_probability_ramp():
    model = FaultModel()
    assert model.p_fault(1375) == 0.0
    assert model.p_fault(845) == 0.0  # onset threshold itself is safe
    assert model.p_fault(800) == pytest.approx(0.05)
    assert model.p_fault(500) == 0.05  # clamped below the crash point
    assert 0 < model.p_fault(820) < 0.05


@given(st.integers(801, 3000))
def test_no_faults_at_or_above_onset(mv):
    model = FaultModel()
    cpu = Cpu(model=model, seed=1)
    cpu.set_supply(mv if mv < model.v_abs_max_mv else 1500)
    sig = cpu.sign_crt_rsa(KEY, 42)
    if cpu.supply_mv >= model.v_fault_mv:
        assert sig == KEY.sign(42)


def test_crash_at_or_below_threshold():
    cpu = Cpu()
    cpu.set_supply(800)
    assert cpu.status is CpuStatus.CRASHED
    with pytest.raises(CpuUnavailable):
        cpu.sign_crt_rsa(KEY, 42)
    cpu.reboot()
    assert cpu.status is CpuStatus.RUNNING


def test_brick_needs_two_events_and_is_absorbing():
    cpu = Cpu()
    cpu.set_supply(1600)
    cpu.set_supply(2840)  # the same excursion: one event, however the supply moves within it
    assert (cpu.damage_events, cpu.status) == (1, CpuStatus.RUNNING)
    cpu.set_supply(1375)
    cpu.set_supply(2840)
    assert cpu.status is CpuStatus.BRICKED
    cpu.reboot()
    assert cpu.status is CpuStatus.BRICKED
    cpu.set_supply(1375)
    assert cpu.status is CpuStatus.BRICKED


def test_a_nominal_above_the_maximum_is_one_excursion_per_boot():
    """The excursion starts at power-on, so it counts even though the supply never rose past the maximum."""
    cpu = Cpu(model=FaultModel(v_abs_max_mv=1300), nominal_mv=1375)
    for _ in range(3):  # boot, then every write settles the rail again
        cpu.set_supply(1375)
    assert (cpu.damage_events, cpu.status) == (1, CpuStatus.RUNNING)
    cpu.reboot()
    cpu.set_supply(1375)
    assert (cpu.damage_events, cpu.status) == (2, CpuStatus.BRICKED)


OVERVOLT_2790_MV = [
    (pm.CMD_MFR_VR_CONFIG, pm.VR_CONFIG_FIX_MODE | pm.VR_CONFIG_VID_STEP_SEL),
    (pm.CMD_MFR_OCP_TOTAL_SET, 0),
    (pm.CMD_VOUT_COMMAND, 0xFA),  # 2790 mV on the 10 mV table
    (pm.CMD_OPERATION, pm.OPERATION_PMBUS_OVERRIDE),
]


def bmc_write(platform, command, value):
    t = Transaction(0x20, Direction.WRITE, command, pm.encode_value(command, value))
    return platform.transfer("bmc", 2, t)


def test_writes_during_an_excursion_add_no_damage(x11):
    """Every write settles the rail, but one overvolt is one damage event, not one per write."""
    for command, value in OVERVOLT_2790_MV:
        assert bmc_write(x11, command, value).ok
    assert x11.main_vrm.output_mv == 2790
    assert (x11.cpu.damage_events, x11.status) == (1, "running")
    assert bmc_write(x11, pm.CMD_PAGE, 0).ok  # harmless, and settles the rail again
    assert (x11.cpu.damage_events, x11.status) == (1, "running")
    x11.reboot()  # the rail is still in override: a new excursion
    assert (x11.cpu.damage_events, x11.status) == (2, "bricked")


def test_faulty_signature_taxonomy():
    cpu = Cpu(seed=7)
    cpu.set_supply(810)
    truth = KEY.sign(42)
    seen = set()
    for _ in range(3000):
        result = cpu.sign_crt_rsa(KEY, 42)
        if isinstance(result, FaultySignature):
            assert result.value != truth
            seen.add(result.flipped)
            if result.flipped in ONE_BRANCH:
                branch = next(iter(result.flipped))
                prime = KEY.p if branch == "q" else KEY.q
                # untouched branch still matches the true signature
                assert result.value % prime == truth % prime
        else:
            assert result == truth
    assert frozenset({"p"}) in seen and frozenset({"q"}) in seen
    assert any("s" in f for f in seen)


def test_one_branch_fault_fraction_matches_model():
    model = FaultModel()
    cpu = Cpu(model=model, seed=11)
    cpu.set_supply(805)
    faults = [r for _ in range(4000) for r in [cpu.sign_crt_rsa(KEY, 42)] if isinstance(r, FaultySignature)]
    assert len(faults) > 500
    observed = sum(f.flipped in ONE_BRANCH for f in faults) / len(faults)
    # analytic single-branch fraction of the three independent flip sources
    p = model.p_fault(805)
    ps = min(p * model.stray_fault_weight, 1.0)
    p_any = 1 - (1 - p) ** 2 * (1 - ps)
    expected = 2 * p * (1 - p) * (1 - ps) / p_any
    assert observed == pytest.approx(expected, abs=0.05)


def test_reseed_reproduces_fault_stream():
    a, b = Cpu(seed=21), Cpu(seed=99)
    b.reseed(21)
    for cpu in (a, b):
        cpu.set_supply(810)
    results_a = [a.sign_crt_rsa(KEY, 42) for _ in range(200)]
    results_b = [b.sign_crt_rsa(KEY, 42) for _ in range(200)]
    assert results_a == results_b


def reference_sign(cpu: Cpu, key: CrtRsaKey, message: int) -> int | FaultySignature:
    """Uncached signer: both exponentiations on every call, same RNG draw order."""
    p_fault = cpu.model.p_fault(cpu.supply_mv)
    flipped = set()
    sp = pow(message, key.dp, key.p)
    if p_fault > 0 and cpu.rng.random() < p_fault:
        sp ^= 1 << cpu.rng.randrange(key.p.bit_length())
        flipped.add("p")
    sq = pow(message, key.dq, key.q)
    if p_fault > 0 and cpu.rng.random() < p_fault:
        sq ^= 1 << cpu.rng.randrange(key.q.bit_length())
        flipped.add("q")
    sig = sq + (key.qinv * (sp - sq)) % key.p * key.q
    if p_fault > 0 and cpu.rng.random() < p_fault * cpu.model.stray_fault_weight:
        sig = (sig ^ (1 << cpu.rng.randrange(key.n.bit_length()))) % key.n
        flipped.add("s")
    return FaultySignature(sig, frozenset(flipped)) if flipped else sig


@pytest.mark.parametrize("supply_mv", [900, 845, 830, 810, 805])
def test_cached_branches_keep_the_fault_stream(supply_mv):
    keys = (KEY, CrtRsaKey.generate(128, random.Random(7)))
    messages = (42, 0xC0FFEE)
    crt_branches.cache_clear()
    cached, reference = Cpu(seed=supply_mv), Cpu(seed=supply_mv)
    for cpu in (cached, reference):
        cpu.set_supply(supply_mv)
    for i in range(2000):
        key, message = keys[i % 2], messages[i // 2 % 2]
        assert cached.sign_crt_rsa(key, message) == reference_sign(reference, key, message)
    assert cached.rng.getstate() == reference.rng.getstate()
    assert crt_branches.cache_info().maxsize is not None


def test_every_repeat_signing_is_a_branch_cache_hit():
    cpu = Cpu(seed=3)
    cpu.set_supply(820)
    crt_branches.cache_clear()
    for _ in range(50):
        cpu.sign_crt_rsa(KEY, 42)
    cpu.sign_crt_rsa(CrtRsaKey.from_primes(KEY.p, KEY.q, KEY.e), 42)  # an equal key
    info = crt_branches.cache_info()
    assert (info.misses, info.hits) == (1, 50)


@st.composite
def fault_models(draw):
    crash = draw(st.integers(0, 1500))
    fault = draw(st.integers(crash + 1, 1600))
    return FaultModel(
        v_crash_mv=crash,
        v_fault_mv=fault,
        v_abs_max_mv=draw(st.integers(fault + 1, 2000)),
        p_fault_max=draw(st.floats(0, 1)),
        stray_fault_weight=draw(st.floats(0, 100)),
        brick_events_needed=draw(st.integers(1, 5)),
    )


@given(fault_models(), st.integers(0, 2500), st.integers(0, 2**32))
def test_fault_free_is_exactly_a_drawless_clean_signing(model, supply_mv, seed):
    """What lets the undervolt campaign skip a fault-free level's signings."""
    cpu = Cpu(model=model, seed=seed)
    cpu.supply_mv = supply_mv  # bypass set_supply's crash/brick transitions
    fault_free = cpu.fault_free
    before = cpu.rng.getstate()
    sig = cpu.sign_crt_rsa(KEY, 42)
    assert fault_free is (sig == KEY.sign(42) and cpu.rng.getstate() == before)


@pytest.mark.parametrize(
    "fault_model",
    [
        {"v_fault_mv": 800, "v_crash_mv": 800},
        {"v_fault_mv": 790},
        {"v_fault_mv": 1600},
        {"p_fault_max": 1.5},
        {"p_fault_max": -0.1},
        {"stray_fault_weight": -1.0},
        {"brick_events_needed": 0},
    ],
)
def test_impossible_fault_model_profile_is_rejected(edited_board, fault_model):
    with pytest.raises(OutOfRange):
        edited_board("x11ssl-cf", lambda doc: doc.update(fault_model=fault_model))
