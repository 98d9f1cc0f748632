"""Lazy one-sided symbol sequences, read in runs and at positions.

prefix(), block() and iteration read contiguous runs (Sarnak sums,
autocorrelations); at() reads arbitrary positions (the dilated KBSZ sums).
A stream with a reader reads both through it, from the digits of each
position (see DigitReader), so a run costs memory in its length and a
positional read in the number of positions, wherever they lie.  The other
streams grow a cached prefix from their build and index it.
"""

from __future__ import annotations

import numpy as np

# Least entries (alphabet size x radix) of a digit level table: radix 2^16
# for a binary alphabet, which reads any position below 2^32 in two gathers,
# and a few MiB per table however many symbols the alphabet has.
LEVEL_MIN = 1 << 17


class SymbolStream:
    """Deterministic sequence over {0..alphabet_size-1}.

    read(key), when given, is the only way the stream is read: it returns
    the symbols at a slice(lo, hi), 0 <= lo <= hi <= 2^63, or at a nonempty
    int64 array of nonnegative positions, in an array no other read shares,
    and build may be None.  Otherwise build(n) must return a prefix of
    length >= n and agree with earlier calls on the overlap; growth extends
    a cached read-only prefix.  block() reads do not move the iteration cursor.
    """

    def __init__(self, build, name: str = "stream", alphabet_size: int | None = None, letters=None, read=None):
        self._build = build
        self._read = read
        self.name = name
        self.alphabet_size = alphabet_size
        self.letters = tuple(letters) if letters is not None else None
        self._prefix = np.zeros(0, dtype=np.int32)
        self._prefix.flags.writeable = False
        self.position = 0

    def _ensure(self, n: int) -> None:
        if len(self._prefix) >= n:
            return
        try:
            grown = np.asarray(self._build(max(n, 2 * len(self._prefix), 64)), dtype=np.int32)
        except ValueError:
            # finite sources may refuse the padded ask but still cover n
            grown = np.asarray(self._build(n), dtype=np.int32)
        if len(grown) < n:
            raise ValueError("stream %r produced %d symbols, needed %d" % (self.name, len(grown), n))
        if len(self._prefix) and not np.array_equal(grown[: len(self._prefix)], self._prefix):
            raise ValueError("stream %r is not consistent between builds" % self.name)
        grown.flags.writeable = False
        self._prefix = grown

    def _get(self, key) -> np.ndarray:
        """Symbols at a slice(lo, hi) or a nonempty array of positions."""
        if self._read is not None:
            return np.asarray(self._read(key), dtype=np.int32)
        self._ensure(key.stop if isinstance(key, slice) else int(key.max()) + 1)
        return self._prefix[key]

    def prefix(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("length must be nonnegative, got %d" % n)
        return self._get(slice(0, n))

    def block(self, start: int, count: int) -> np.ndarray:
        if start < 0 or count < 0 or start + count > 1 << 63:
            raise ValueError("block read out of range: start=%d count=%d" % (start, count))
        return self._get(slice(start, start + count))

    def at(self, positions) -> np.ndarray:
        """Symbols at arbitrary nonnegative positions, as int32."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return np.zeros(positions.shape, dtype=np.int32)
        if positions.min() < 0:
            raise ValueError("positions must be nonnegative")
        return self._get(positions)

    def __iter__(self):
        return self

    def __next__(self) -> int:
        value = int(self._get(slice(self.position, self.position + 1))[0])
        self.position += 1
        return value

    def take(self, n: int) -> list:
        return [int(v) for v in self.prefix(n)]

    def __repr__(self):
        return "SymbolStream(%r)" % self.name


class DigitReader:
    """Reads a sequence through tables on the digits of a position.

    levels is an iterator of (radix R_j, table T_j of shape (alphabet, R_j)),
    pulled on the first read that needs each level and then kept.  Writing
    p = d_0 + d_1 R_0 + d_2 R_0 R_1 + ... with 0 <= d_j < R_j,

        x[p] = T_0[T_1[... T_m[start, d_m] ..., d_1], d_0],

    which is the recursion x[q R_0 + i] = T_0[y[q], i] with y the sequence
    read from the levels above the first.  T_j[start, 0] must be start, so
    leading zero digits change nothing and reads below R_0 use one table.
    A run [lo, hi) reads y at lo // R_0 .. (hi - 1) // R_0 through the
    levels above the first, gathers those rows of T_0 and slices.
    """

    def __init__(self, start: int, levels):
        self._start = int(start)
        self._pending = levels
        self._levels = []

    def _level(self, j: int):
        while len(self._levels) <= j:
            radix, table = next(self._pending)
            self._levels.append((radix, np.ascontiguousarray(table, dtype=np.int32)))
        return self._levels[j]

    def _at(self, q: np.ndarray, top: int, j: int) -> np.ndarray:
        """Symbols at positions q, none above top, of the sequence read from level j up."""
        radix, table = self._level(j)
        if top < radix:
            return table[self._start][q]
        y = self._at(q // radix, top // radix, j + 1)
        return table.reshape(-1)[y * radix + q % radix]

    def __call__(self, key) -> np.ndarray:
        if not isinstance(key, slice):
            return self._at(key, int(key.max()), 0)
        radix, table = self._level(0)
        first, last = key.start // radix, (key.stop - 1) // radix
        rows = table[self._at(np.arange(first, last + 1, dtype=np.int64), last, 1)]
        return rows.reshape(-1)[key.start - first * radix : key.stop - first * radix]


def word_stream(values, name: str = "word", alphabet_size: int | None = None, letters=None) -> SymbolStream:
    """Wrap a finite word; reads past the end raise ValueError."""
    arr = np.asarray(values, dtype=np.int32)

    def build(n):
        if n > len(arr):
            raise ValueError("word %r has %d symbols, needed %d" % (name, len(arr), n))
        return arr

    return SymbolStream(build, name=name, alphabet_size=alphabet_size, letters=letters)


def periodic_stream(word, name: str = "periodic", alphabet_size: int | None = None) -> SymbolStream:
    """Infinite repetition of a finite word."""
    base = np.asarray(word, dtype=np.int32)
    if len(base) == 0:
        raise ValueError("period must be nonempty")

    def build(n):
        reps = -(-n // len(base))
        return np.tile(base, reps)

    return SymbolStream(build, name=name, alphabet_size=alphabet_size)
