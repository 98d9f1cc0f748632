"""Multiplicative weights and binary digit patterns.

Weight tables hold mu or lambda on 1..limit, read from the one packed array
of weight states 2 [lambda(n) = 1] + [mu(n) != 0], two bits per n, that
their sweep (weight_tables) writes:

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

import functools
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


# The weight state of n is 2 [lambda(n) = 1] + [mu(n) != 0]; each kind's weight at each state, as mu(n) = lambda(n)
# wherever mu(n) != 0.
_STATE_WEIGHTS = {"moebius": np.array([0, -1, 0, 1], dtype=np.int8),
                  "liouville": np.array([-1, -1, 1, 1], dtype=np.int8)}
# The tables are built in Python: a numpy ufunc called at import faults in pages of numpy's code that a run
# without weights never needs (a KBSZ run's peak RSS rose by 0.2-0.6 MiB).
# The four states of each byte of a packed array: n = 4 i + j in bits 2 j and 2 j + 1 of byte i.
_UNPACK = np.array([[b >> 2 * j & 3 for j in range(4)] for b in range(256)], dtype=np.uint8)
# The state of 2 m is (s(m) ^ 2) & (2 + m % 2): lambda(2 m) = -lambda(m), and 2 m is squarefree only when m is odd
# and squarefree.  _EVEN[b] holds those of the n = 2 m of a byte b of m = 4 i + j, 4 j bits up in the two bytes of
# n, the lower byte first.
_EVEN = np.array([sum((((b >> 2 * j & 3) ^ 2) & (2 + j % 2)) << 4 * j for j in range(4)) for b in range(256)], "<u2")


@dataclass(frozen=True)
class WeightTable:
    """mu or lambda on 1..limit, read from the packed weight states of one sweep (weight_tables)."""

    kind: str
    limit: int
    states: np.ndarray  # uint8, the states of n = 0..limit four a byte (_UNPACK), read-only, shared by the sweep

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The read-only int8 table of 0..limit, values[0] = 0 and unused, unpacked on first use."""
        values = self.state_reader(_STATE_WEIGHTS[self.kind])(0, self.limit + 1)
        values[0] = 0
        values.flags.writeable = False
        return values

    def state_reader(self, codes: np.ndarray):
        """read(lo, hi): a fresh array of codes[state of n] (one byte each) for n in lo..hi-1, 0 past the states."""
        table = codes[_UNPACK].view(np.uint32).reshape(-1)  # the four codes of each byte value as one entry

        def read(lo, hi):
            first = lo >> 2
            s = np.take(table, self.states[first : (hi + 3) >> 2]).view(codes.dtype)[lo - 4 * first :][: hi - lo]
            return s if len(s) == hi - lo else np.pad(s, (0, hi - lo - len(s)))

        return read

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError("n=%d outside table range 1..%d" % (n, self.limit))
        return int(_STATE_WEIGHTS[self.kind][_UNPACK[self.states[n >> 2], n & 3]])


# Positions per sieve block, within one octave [2^k, 2^(k+1)): the int32
# signed smooth parts of its 2^18 odd n take 1 MiB, as the packed states
# of 2^22 do.  Sweeps to 2^22 took 19-20 ms in blocks of 2^19 and 2^20 and
# 25 ms in blocks of 2^18; to 2^24, 79 ms in blocks of 2^19 and 70 ms in
# blocks of 2^20 (medians of 9 to 21, 2 cores, shared).
_BLOCK = 1 << 19


def _block_states(lo: int, hi: int, primes: np.ndarray, wheel: np.ndarray) -> np.ndarray:
    """The uint8 weight states of the odd n in lo..hi-1, for hi - 1 <= lo^2 and hi <= 2^31 (v is int32, |v| <= n).

    primes must hold every prime <= isqrt(hi - 1), and wheel[i] the product
    of -p over the prime powers q = p^k dividing both len(wheel) and 2 i + 1.

    Each odd prime power q = p^k multiplies v at its odd multiples, q apart
    in v, by -p (the wheel's, tiled from it), leaving (-1)^k s for the
    product s of the k prime factors <= sqrt, with multiplicity, and q = p^2
    marks its odd multiples squareful.  Where s falls short of n, the rest is a
    single prime above isqrt(hi - 1), which flips the sign once more, and
    s = n / that prime < sqrt(hi - 1) <= lo, while s = n >= lo otherwise:
    lambda(n) = -1 exactly where [v > 0] != [|v| >= lo].
    """
    first = lo | 1
    v = np.resize(np.roll(wheel, -(first // 2)), (hi - first + 1) // 2)
    squareful = np.zeros(len(v), dtype=bool)
    for p in primes.tolist()[1:]:
        if p * p >= hi:
            break
        q = p
        while q < hi:
            j = -first * ((q + 1) // 2) % q  # n = first + 2 j with q | n: j = -first / 2 mod q
            if len(wheel) % q:
                v[j::q] *= -p
            if q == p * p:
                squareful[j::q] = True
            q *= p
    state = (v > 0).view(np.uint8)
    state ^= np.abs(v, out=v) >= lo  # [lambda(n) = -1]
    state <<= 1
    state |= squareful
    state ^= 3  # 2 [lambda(n) = 1] + [mu(n) != 0]
    return state


def weight_tables(reaches: dict) -> dict:
    """The WeightTable of each kind in reaches (kind -> limit), all reading one array of packed weight states.

    One segmented sqrt sieve writes the state 2 [lambda(n) = 1] + [mu(n) != 0]
    of each n up to the widest limit, four a byte, so N/4 bytes serve both
    kinds.  The primes up to its isqrt are found once, and the sweep fills
    blocks of at most _BLOCK positions, each inside one octave
    [2^k, 2^(k+1)).  A block takes the states of its even n from the octave
    below (_EVEN) and sieves only its odd n (_block_states), tiling the prime
    powers of 45045 = 9 5 7 11 13.  Each table reads a view of the states up
    to its limit, and unpacks its int8 values only when they are asked for.
    """
    for kind, limit in reaches.items():
        if kind not in WEIGHT_KINDS:
            raise ValueError("unknown weight kind %r (expected one of %s)" % (kind, ", ".join(WEIGHT_KINDS)))
        if not 1 <= limit <= LIMIT_CAP:
            raise ValueError("limit must be in 1..%d, got %d" % (LIMIT_CAP, limit))
    packed = np.empty(max(2, max(reaches.values()) // 4 + 1), dtype=np.uint8)
    packed[:2] = 0b01_01_11_00, 0b01_11_01_10  # n = 3, 2, 1, 0 and 7, 6, 5, 4; the state of 0 is unused
    end = 4 * len(packed)  # the states of every n below end are right
    primes = primes_up_to(math.isqrt(end - 1))
    wheel = np.ones(9 * 5 * 7 * 11 * 13, dtype=np.int32)  # their strides were most of the sieve's work
    for p, q in ((3, 3), (3, 9), (5, 5), (7, 7), (11, 11), (13, 13)):
        wheel[(q - 1) // 2 :: q] *= -p
    for k in range(3, end.bit_length()):
        for lo in range(1 << k, min(2 << k, end), _BLOCK):
            hi = min(lo + _BLOCK, 2 << k, end)
            out = packed[lo >> 2 : hi >> 2]
            out[:] = np.take(_EVEN, packed[lo >> 3 : (hi + 4) >> 3]).view(np.uint8)[: len(out)]
            odd = _block_states(lo, hi, primes, wheel)
            out |= odd[::2] << 2 | odd[1::2] << 6
    packed.flags.writeable = False
    return {kind: WeightTable(kind, limit, packed[: limit // 4 + 1]) for kind, limit in reaches.items()}


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
        if isinstance(key, slice) and (key.step or 1) > 1:  # a whole run and positions of "1*10" over 2^15 took
            if key.step <= 32:  # 0.33 / 0.54 ms at step 32 and 0.75 / 0.77 ms at 64 (best of 7, 2 cores)
                return np.ascontiguousarray(self(slice(key.start, key.stop))[:: key.step])
            key = key.start + key.step * np.arange(len(range(key.start, key.stop, key.step)), dtype=np.int64)
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
