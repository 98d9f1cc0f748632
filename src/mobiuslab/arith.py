"""Multiplicative weights and binary digit patterns.

Weight tables hold mu or lambda on 1..limit:

    mu(1) = 1, mu(n) = (-1)^k if n is a product of k distinct primes, else 0
    lambda(n) = (-1)^Omega(n), Omega counting prime factors with multiplicity

Digit patterns act on the binary expansion of n written most significant bit
first (n = 0 has the empty expansion).  A pattern is a word whose first
character is the literal 1, whose last character is a literal 0 or 1, and
whose interior characters are 1 or the wildcard *.  pattern_parity(n) is the
number of overlapping occurrences of the pattern in the expansion, mod 2.
With mask holding a 1 at each literal character and value its bits,
pattern_parity(n) xors [(n >> j) & mask == value] over the offsets j >= 0.
PatternReader makes that compare per offset at positions, and reads a run
by blocks of 2^16 positions, n = H 2^16 + L, as

    pattern_parity(n) = low[L] xor straddle(n) xor pattern_parity(H)

with low a table of 0..2^16 - 1.  straddle(n) xors the windows across bit
16 whose bits above it match H, each compared on the few values of L >> j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WEIGHT_KINDS = ("moebius", "liouville")
LIMIT_CAP = 1 << 26


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending primes <= limit."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, int(limit**0.5) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite).astype(np.int64)


# Deterministic Miller-Rabin: the first thirteen prime bases decide every n
# below this bound, the least strong pseudoprime to all of them (OEIS
# A014233).  Twelve bases would stop at 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
IS_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n < IS_PRIME_BOUND; ValueError above it."""
    if n >= IS_PRIME_BOUND:
        raise ValueError("primality of %d is not decided (limit is %d)" % (n, IS_PRIME_BOUND - 1))
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class WeightTable:
    """Tabulated mu or lambda on 1..limit; values[0] is 0 and unused."""

    kind: str
    limit: int
    values: np.ndarray  # int8, length limit + 1, read-only

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError("n=%d outside table range 1..%d" % (n, self.limit))
        return int(self.values[n])


# Positions per sieve block, within one octave [2^k, 2^(k+1)): the int32
# signed smooth parts of its 2^19 odd n (2 MiB) stay small next to the
# tables.  Blocks of 2^19 positions ran no faster.
_BLOCK = 1 << 20


def _block_weights(lo: int, hi: int, primes: np.ndarray, wheel: np.ndarray) -> np.ndarray:
    """lambda at the odd n in lo..hi-1 for 1 <= lo < hi <= 2^31 (v is int32 and |v| <= n).

    primes must hold every prime <= isqrt(hi - 1), and wheel[i] the product
    of -p over the prime powers q = p^k dividing both len(wheel) and 2 i + 1.

    Each odd prime power q = p^k multiplies v at its odd multiples, q apart
    in v, by -p (the wheel's, tiled from it), leaving (-1)^k s for the
    product s of the k prime factors <= sqrt, with multiplicity.  Where s
    falls short of n, the rest is a single prime above isqrt(hi - 1), which
    flips the sign once more: lambda(n) = -1 exactly where v is in (0, n) or
    v = -n, where [v > 0] != [|v| = n].
    """
    first = lo | 1
    v = np.resize(np.roll(wheel, -(first // 2)), (hi - first + 1) // 2)
    for p in primes.tolist()[1:]:
        if p * p >= hi:
            break
        q = p
        while q < hi:
            if len(wheel) % q:
                v[-first * ((q + 1) // 2) % q :: q] *= -p  # n = first + 2 j with q | n: j = -first / 2 mod q
            q *= p
    neg = v > 0
    neg ^= np.abs(v, out=v) == np.arange(first, hi, 2, dtype=np.int32)
    return 1 - 2 * neg.view(np.int8)


def weight_tables(reaches: dict) -> dict:
    """The WeightTable of each kind in reaches (kind -> limit), from one segmented sqrt sieve.

    The primes up to the isqrt of the widest limit are found once; one sweep
    fills lambda to that limit in blocks of at most _BLOCK positions, each
    inside one octave [2^k, 2^(k+1)).  A block copies lambda(n) = -lambda(n/2)
    at its even n from the octave below and sieves only its odd n
    (_block_weights), tiling the prime powers of 45045 = 9 5 7 11 13.  mu is
    lambda with the multiples of each p^2 set to 0.  The widest kind keeps
    the sweep's array and the other copies its prefix first, so a mu-only
    request derives mu in place and two kinds hold two tables.
    """
    for kind, limit in reaches.items():
        if kind not in WEIGHT_KINDS:
            raise ValueError("unknown weight kind %r (expected one of %s)" % (kind, ", ".join(WEIGHT_KINDS)))
        if not 1 <= limit <= LIMIT_CAP:
            raise ValueError("limit must be in 1..%d, got %d" % (LIMIT_CAP, limit))
    widest = max(reaches, key=reaches.get)
    primes = primes_up_to(math.isqrt(reaches[widest]))
    lam = np.empty(reaches[widest] + 1, dtype=np.int8)
    lam[0] = 0
    wheel = np.ones(9 * 5 * 7 * 11 * 13, dtype=np.int32)  # their strides were most of the sieve's work
    for p, q in ((3, 3), (3, 9), (5, 5), (7, 7), (11, 11), (13, 13)):
        wheel[(q - 1) // 2 :: q] *= -p
    for k in range(reaches[widest].bit_length()):
        for lo in range(1 << k, min(2 << k, len(lam)), _BLOCK):
            hi = min(lo + _BLOCK, 2 << k, len(lam))
            np.negative(lam[(lo + 1) // 2 : (hi + 1) // 2], out=lam[lo + (lo & 1) : hi : 2])
            lam[lo | 1 : hi : 2] = _block_weights(lo, hi, primes, wheel)
    values = {kind: lam if kind == widest else lam[: limit + 1].copy() for kind, limit in reaches.items()}
    if "moebius" in values:
        for p in primes.tolist():
            values["moebius"][p * p :: p * p] = 0
    for kind, table in values.items():
        table.flags.writeable = False
    return {kind: WeightTable(kind, reaches[kind], table) for kind, table in values.items()}


def weight_table(kind: str, limit: int) -> WeightTable:
    """Tabulate mu or lambda for 1..limit: weight_tables for the one kind."""
    return weight_tables({kind: limit})[kind]


@dataclass(frozen=True)
class DigitPattern:
    """Binary pattern over {1, *} with a literal terminal bit."""

    pattern: str

    def __post_init__(self):
        p = self.pattern
        if len(p) < 2:
            raise ValueError("pattern needs at least two characters, got %r" % p)
        if p[0] != "1":
            raise ValueError("pattern must start with the literal 1, got %r" % p)
        if p[-1] not in "01":
            raise ValueError("pattern must end with a literal bit, got %r" % p)
        bad = set(p[1:-1]) - set("1*")
        if bad:
            raise ValueError("interior characters must be 1 or *, got %r in %r" % ("".join(sorted(bad)), p))

    def __len__(self) -> int:
        return len(self.pattern)


def _as_pattern(pattern) -> DigitPattern:
    return pattern if isinstance(pattern, DigitPattern) else DigitPattern(str(pattern))


def pattern_parity(n: int, pattern) -> int:
    """Parity of overlapping pattern occurrences in the binary expansion of n."""
    if n < 0:
        raise ValueError("n must be nonnegative, got %d" % n)
    pat = _as_pattern(pattern).pattern
    bits = bin(n)[2:] if n else ""
    m = len(pat)
    count = 0
    for i in range(len(bits) - m + 1):
        window = bits[i : i + m]
        if all(c == "*" or c == w for c, w in zip(pat, window)):
            count += 1
    return count & 1


def pattern_parities(count: int, pattern) -> np.ndarray:
    """pattern_parity(n) for n = 0..count-1, read as one run."""
    if count < 0:
        raise ValueError("count must be nonnegative, got %d" % count)
    return pattern_parities_at(slice(0, count), pattern)


def pattern_parities_at(key, pattern) -> np.ndarray:
    """pattern_parity(n) for n in key: a slice(lo, hi) or an array of nonnegative integers."""
    return PatternReader(pattern)(key)


def _window_parity(n: np.ndarray, mask: int, value: int, offsets: range) -> np.ndarray:
    """xor over j in offsets of [(n >> j) & mask == value], for an unsigned array n wide enough for mask."""
    acc = np.zeros(len(n), dtype=np.uint8)
    window = np.empty_like(n)
    hit = np.empty(len(n), dtype=bool)
    for j in offsets:
        np.right_shift(n, j, out=window)
        window &= mask
        np.equal(window, value, out=hit)
        acc ^= hit
    return acc


class PatternReader:
    """pattern_parity at a slice(lo, hi) or an array of nonnegative integers, as uint8.

    The table low is built on the first run and held here.  A pattern over
    64 characters matches nothing below 2^64.
    """

    def __init__(self, pattern):
        pat = _as_pattern(pattern).pattern
        self._m = m = len(pat)
        # the window at the low end: a 1 at each literal in mask, its bit in value
        self._mask = sum(1 << (m - 1 - i) for i, c in enumerate(pat) if c != "*")
        self._value = sum(1 << (m - 1 - i) for i, c in enumerate(pat) if c == "1")
        self._low = None

    def __call__(self, key) -> np.ndarray:
        if isinstance(key, slice) and (key.step or 1) > 1:  # every step-th symbol of the run
            return np.ascontiguousarray(self(slice(key.start, key.stop))[:: key.step])
        m, mask, value = self._m, self._mask, self._value
        out = np.zeros(key.stop - key.start if isinstance(key, slice) else len(key), dtype=np.uint8)
        if m > 64:
            return out
        if not isinstance(key, slice):
            n = np.asarray(key).astype(np.uint64, copy=False)
            return _window_parity(n, mask, value, range(int(n.max(initial=0)).bit_length() - m + 1))
        if self._low is None:
            self._low = _window_parity(np.arange(1 << 16, dtype=np.uint32), mask, value, range(17 - m))
        edges = [key.start, *range((key.start | 0xFFFF) + 1, key.stop, 1 << 16), key.stop]
        for a, b in zip(edges, edges[1:]):
            part, lo, h = out[a - key.start : b - key.start], a & 0xFFFF, a >> 16
            part[:] = self._low[lo : lo + b - a]
            for j in range(max(0, 17 - m), 16):  # the windows across bit 16, where h holds the bits above it
                if (h & (mask >> (16 - j))) == (value >> (16 - j)):
                    below = np.arange(lo >> j, ((lo + b - a - 1) >> j) + 1, dtype=np.uint32) & (mask & (0xFFFF >> j))
                    part ^= (below == (value & (0xFFFF >> j))).repeat(1 << j)[lo & ((1 << j) - 1) :][: b - a]
            if sum(((h >> j) & mask) == value for j in range(h.bit_length() - m + 1)) & 1:  # pattern_parity(H)
                part ^= 1
        return out
