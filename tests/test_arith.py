import functools
import math

import numpy as np
import pytest

from mobiuslab import arith
from mobiuslab.arith import (
    IS_PRIME_BOUND,
    DigitPattern,
    PatternReader,
    is_prime,
    pattern_parities,
    pattern_parities_at,
    pattern_parity,
    primes_up_to,
    weight_table,
)


def factorize(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def mu_naive(n):
    f = factorize(n)
    if len(set(f)) != len(f):
        return 0
    return -1 if len(f) % 2 else 1


def test_primes_up_to():
    assert primes_up_to(1).tolist() == []
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10**5)) == 9592


def test_moebius_table_small_values():
    w = weight_table("moebius", 100)
    assert w[1] == 1
    assert w[2] == -1
    assert w[4] == 0
    assert w[6] == 1
    assert w[12] == 0
    assert w[30] == -1
    assert sum(int(w[n]) for n in range(1, 11)) == -1


def test_liouville_table_small_values():
    w = weight_table("liouville", 100)
    assert w[1] == 1
    assert w[2] == -1
    assert w[4] == 1
    assert w[8] == -1
    assert w[12] == -1
    assert w[16] == 1


def test_tables_match_trial_division():
    mu = weight_table("moebius", 10**4)
    lam = weight_table("liouville", 10**4)
    for n in range(1, 10**4 + 1):
        f = factorize(n)
        assert lam[n] == (-1) ** len(f)
        assert mu[n] == mu_naive(n)


def test_tables_match_trial_division_at_every_small_limit():
    # every limit 1..300 crosses each isqrt step and each p^2 edge
    for limit in range(1, 301):
        mu = weight_table("moebius", limit).values
        lam = weight_table("liouville", limit).values
        assert len(mu) == len(lam) == limit + 1
        assert mu[0] == lam[0] == 0
        for n in range(1, limit + 1):
            assert lam[n] == (-1) ** len(factorize(n)), (limit, n)
            assert mu[n] == mu_naive(n), (limit, n)


def all_primes_sieve(kind, limit):
    """The earlier weight sieve: one pass over every prime up to limit."""
    values = np.ones(limit + 1, dtype=np.int8)
    values[0] = 0
    for p in primes_up_to(limit):
        p = int(p)
        values[p::p] *= -1
        if kind == "moebius":
            sq = p * p
            if sq <= limit:
                values[sq::sq] = 0
        else:
            q = p * p
            while q <= limit:
                values[q::q] *= -1
                q *= p
    return values


# three full sieve blocks and a ragged tail
MULTI_BLOCK_LIMIT = 3 * arith._BLOCK + 12345


@pytest.mark.parametrize("kind", ["moebius", "liouville"])
def test_multi_block_table_matches_all_primes_sieve(kind):
    table = weight_table(kind, MULTI_BLOCK_LIMIT)
    assert table.values.dtype == np.int8
    assert np.array_equal(table.values, all_primes_sieve(kind, MULTI_BLOCK_LIMIT))


def check_shared_sweep(reaches, oracle):
    """weight_tables(reaches) holds each kind's own read-only table, oracle[kind] (bytes) up to its reach."""
    tables = arith.weight_tables(reaches)
    assert list(tables) == list(reaches)
    for kind, limit in reaches.items():
        table = tables[kind]
        assert (table.kind, table.limit, table.values.dtype, table.values.flags.writeable) == (
            kind, limit, np.int8, False)
        assert table.values.tobytes() == oracle[kind][: limit + 1], (reaches, kind)
    if len(tables) == 2:
        assert not np.shares_memory(tables["moebius"].values, tables["liouville"].values)


def test_shared_sweep_matches_each_kind_at_every_pair_of_small_reaches():
    # every pair of reaches 1..300 crosses each isqrt step and each p^2 edge on either side
    oracle = {kind: all_primes_sieve(kind, 300).tobytes() for kind in arith.WEIGHT_KINDS}
    for kind in arith.WEIGHT_KINDS:
        for limit in range(1, 301):
            assert weight_table(kind, limit).values.tobytes() == oracle[kind][: limit + 1], (kind, limit)
    for a in range(1, 301):
        for b in range(1, 301):
            check_shared_sweep({"moebius": a, "liouville": b}, oracle)
        check_shared_sweep({"liouville": a, "moebius": a}, oracle)  # a tie, with lambda named first


def test_shared_sweep_matches_all_primes_sieve_across_blocks():
    oracle = {kind: all_primes_sieve(kind, MULTI_BLOCK_LIMIT).tobytes() for kind in arith.WEIGHT_KINDS}
    for a, b in ((MULTI_BLOCK_LIMIT, arith._BLOCK + 1), (arith._BLOCK + 1, MULTI_BLOCK_LIMIT)):
        check_shared_sweep({"moebius": a, "liouville": b}, oracle)
    check_shared_sweep({"moebius": MULTI_BLOCK_LIMIT}, oracle)


def test_sweep_matches_all_primes_sieve_at_octave_edges():
    # the sweep's blocks end at each power of two, where even n copy lambda(n/2) from the octave below
    oracle = {kind: all_primes_sieve(kind, (1 << 21) + 1).tobytes() for kind in arith.WEIGHT_KINDS}
    for k in range(18, 22):
        for limit in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            for kind in arith.WEIGHT_KINDS:
                assert weight_table(kind, limit).values.tobytes() == oracle[kind][: limit + 1], (kind, limit)


@functools.lru_cache(maxsize=None)
def reference_states(limit):
    """2 [lambda(n) = 1] + [mu(n) != 0] for n = 0..limit, from the all-primes sieve."""
    return 2 * (all_primes_sieve("liouville", limit) == 1) + (all_primes_sieve("moebius", limit) != 0)


def check_packed_states(reaches, reference):
    """Every table of weight_tables(reaches) reads one read-only array of limit // 4 + 1 bytes whose states of n =
    1..limit, n = 4 i + j in bits 2 j and 2 j + 1 of byte i, are the reference's."""
    tables = arith.weight_tables(reaches)
    widest = max(reaches, key=reaches.get)
    for kind, limit in reaches.items():
        states = tables[kind].states
        assert (states.dtype, len(states), states.flags.writeable) == (np.uint8, limit // 4 + 1, False), reaches
        assert np.shares_memory(states, tables[widest].states)
        unpacked = np.repeat(states, 4) >> np.tile(np.arange(0, 8, 2, dtype=np.uint8), len(states)) & 3
        assert np.array_equal(unpacked[1 : limit + 1], reference[1 : limit + 1]), (reaches, kind)


def weight_reaches(limit):
    """mu alone, lambda alone, both to limit, and mu reaching 1, 2 and 3 past lambda."""
    yield {"moebius": limit}
    yield {"liouville": limit}
    yield {"liouville": limit, "moebius": limit}
    for below in (1, 2, 3):
        if limit > below:
            yield {"liouville": limit - below, "moebius": limit}


def test_packed_states_match_the_reference_at_every_small_limit():
    reference = reference_states(300)
    for limit in range(1, 301):
        for reaches in weight_reaches(limit):
            check_packed_states(reaches, reference)


@pytest.mark.parametrize("edge", [1 << 19, 1 << 20, (1 << 20) + arith._BLOCK, 1 << 21])
def test_packed_states_match_the_reference_at_block_and_octave_edges(edge):
    # an octave starts, and a block ends, at each power of two, and another block ends inside [2^20, 2^21); the
    # four limits end the packing at each n % 4
    reference = reference_states((1 << 21) + 2)
    for limit in (edge - 1, edge, edge + 1, edge + 2):
        for reaches in weight_reaches(limit):
            check_packed_states(reaches, reference)


def test_multiplicative_across_block_boundaries():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tables = {kind: weight_table(kind, MULTI_BLOCK_LIMIT).values for kind in ("moebius", "liouville")}

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        m=st.integers(2, 5000),
        boundary=st.integers(1, 3),
        offset=st.integers(-64, 64),
    )
    def check(m, boundary, offset):
        # m * n lands within m + 64 of a block boundary
        n = max(1, (boundary * arith._BLOCK + offset) // m)
        mu, lam = tables["moebius"], tables["liouville"]
        assert lam[m * n] == lam[m] * lam[n]
        if math.gcd(m, n) == 1:
            assert mu[m * n] == mu[m] * mu[n]
        else:
            assert mu[m * n] == 0

    check()


def test_is_prime_matches_sieve():
    primes = set(primes_up_to(10**5).tolist())
    assert [n for n in range(-5, 10**5 + 1) if is_prime(n)] == sorted(primes)


def test_is_prime_large_values():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..37
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1)
    assert is_prime(10**14 + 31)
    assert not is_prime((10**9 + 7) * (10**14 + 31))


def test_is_prime_refuses_beyond_bound():
    is_prime(IS_PRIME_BOUND - 1)
    with pytest.raises(ValueError, match="not decided"):
        is_prime(IS_PRIME_BOUND)
    with pytest.raises(ValueError):
        is_prime(10**30)


def test_moebius_divisor_sums_vanish():
    w = weight_table("moebius", 500)
    for n in range(2, 501):
        assert sum(int(w[d]) for d in range(1, n + 1) if n % d == 0) == 0


def test_multiplicative_on_coprime_pairs():
    rng = np.random.default_rng(7)
    for kind in ("moebius", "liouville"):
        w = weight_table(kind, 10**5)
        hits = 0
        while hits < 200:
            m = int(rng.integers(2, 300))
            n = int(rng.integers(2, 300))
            if np.gcd(m, n) != 1:
                continue
            assert w[m * n] == w[m] * w[n]
            hits += 1


def test_weight_table_bounds():
    w = weight_table("moebius", 10)
    with pytest.raises(ValueError):
        w[0]
    with pytest.raises(ValueError):
        w[11]
    with pytest.raises(ValueError):
        weight_table("mu", 10)
    with pytest.raises(ValueError):
        weight_table("moebius", 0)


def test_weight_values_read_only():
    w = weight_table("liouville", 50)
    with pytest.raises(ValueError):
        w.values[3] = 7


def test_pattern_validation():
    DigitPattern("11")
    DigitPattern("10")
    DigitPattern("1*1")
    DigitPattern("1**0")
    with pytest.raises(ValueError):
        DigitPattern("1")  # too short
    with pytest.raises(ValueError):
        DigitPattern("01")  # must start with 1
    with pytest.raises(ValueError):
        DigitPattern("1*")  # must end with 0 or 1
    with pytest.raises(ValueError):
        DigitPattern("101")  # interior 0 not allowed


def test_pattern_parity_11_prefix():
    # parity of overlapping 11 occurrences in binary(n)
    want = [0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1]
    got = [pattern_parity(n, "11") for n in range(16)]
    assert got == want
    assert pattern_parities(16, "11").tolist() == want


def test_pattern_parity_examples():
    # n = 0b11011: windows 11, 10, 01, 11 -> "11" occurs twice
    assert pattern_parity(0b11011, "11") == 0
    # pattern 1*1 over 0b10101: hits at offsets 0 and 2
    assert pattern_parity(0b10101, "1*1") == 0
    assert pattern_parity(0b101, "1*1") == 1
    # terminal 0: 1*0 in 0b100
    assert pattern_parity(0b100, "1*0") == 1
    assert pattern_parity(0, "11") == 0


def test_pattern_parities_match_scalar():
    rng = np.random.default_rng(3)
    for pat in ("11", "10", "1*1", "1**1", "1*0"):
        table = pattern_parities(2048, pat)
        assert table.shape == (2048,)
        for n in rng.integers(0, 2048, size=64):
            assert table[n] == pattern_parity(int(n), pat)


def test_pattern_parity_shift_recursion():
    # a(2n) = a(n) and a(2n+1) = a(n) xor (n odd) for the 11 pattern
    table = pattern_parities(4096, "11")
    for n in range(1, 1024):
        assert table[2 * n] == table[n]
        assert table[2 * n + 1] == table[n] ^ (n & 1)


RECURSION_PATTERNS = ("10", "11", "110", "1*10", "11*1", "1*1**1*11***1")


@pytest.mark.parametrize("pat", RECURSION_PATTERNS)
def test_pattern_parities_recursion_matches_scalar(pat):
    """The range-by-range prefix agrees with the scalar count, cut anywhere."""
    m = len(pat)
    counts = {0, 1, (1 << (m - 1)) - 1, 1 << (m - 1), (1 << (m - 1)) + 1}
    counts |= {(1 << k) + d for k in range(1, 13) for d in (-1, 0, 1)}
    want = np.array([pattern_parity(n, pat) for n in range(max(counts))], dtype=np.uint8)
    for count in sorted(counts):
        got = pattern_parities(count, pat)
        assert got.dtype == np.uint8 and got.shape == (count,)
        assert np.array_equal(got, want[:count]), count


@pytest.mark.parametrize("pat", ("11", "1*10", "11*1"))
def test_pattern_parities_match_positional_reads(pat):
    count = 1 << 20
    assert np.array_equal(pattern_parities(count, pat), pattern_parities_at(np.arange(count), pat))


@pytest.mark.parametrize("m", range(2, 71))
def test_pattern_runs_match_positional_reads(m):
    """A run read block by block equals the masked compare at each position, near 0, 2^16 k and 2^63."""
    rng = np.random.default_rng(m)
    pat = "1" + "".join(rng.choice(["1", "*"], m - 2)) + rng.choice(["0", "1"])
    reader = PatternReader(pat)
    runs = [(0, 3 * (1 << 16) + 5), (1, 700), ((1 << 63) - 700, 700), ((1 << 63) - 1, 1), (5, 0)]
    runs += [((k << 16) - int(d), 700) for k in (1, 2, 3, 1 << 20, 1 << 46) for d in (0, 1, 350)]
    runs += [(int(rng.integers(0, (1 << 63) - 20000)), 20000) for _ in range(3)]
    for start, count in runs:
        got = reader(slice(start, start + count))
        positions = np.arange(start, start + count, dtype=np.int64)
        assert got.dtype == np.uint8 and got.shape == (count,)
        assert np.array_equal(got, pattern_parities_at(positions, pat)), (pat, start, count)
        for i in rng.integers(0, count, 3) if count else ():
            assert got[i] == pattern_parity(start + int(i), pat)


def test_pattern_parities_at_near_the_top_bit():
    positions = np.array([(1 << 64) - 1, (1 << 64) - 2, (1 << 63) + 5, (1 << 63) - 1, 12345], dtype=np.uint64)
    for pat in ("1" * 64, "1" * 63, "1" + "*" * 62 + "0", "11*1"):
        want = [pattern_parity(int(n), pat) for n in positions]
        assert pattern_parities_at(positions, pat).tolist() == want


def test_patterns_longer_than_64_match_nothing():
    pat = "1" + "*" * 63 + "1"
    positions = np.array([0, 1, (1 << 62) + 1, (1 << 63) - 1], dtype=np.int64)
    assert pattern_parities_at(positions, pat).tolist() == [0, 0, 0, 0]
    assert not pattern_parities(4096, pat).any()
