"""Lazy one-sided symbol sequences with positioned block and random reads.

A stream is read in two ways.  prefix() and block() materialize the
sequence from 0 up to the last symbol asked for; consecutive windows
(Sarnak sums, autocorrelations) read that way.  at() reads arbitrary
positions, as the dilated KBSZ sums do.  A stream built with a digit reader
computes each symbol from the digits of its position (see DigitReader), so
reading at positions up to s*N costs memory in the number of positions,
not in s*N; the other streams gather at() from their prefix.
"""

from __future__ import annotations

import numpy as np

# Least radix of a digit level.  Tables of at least this many columns read
# any position below 2^32 in two gathers and stay a few MiB in size.
LEVEL_MIN = 1 << 16


class SymbolStream:
    """Deterministic sequence over {0..alphabet_size-1}, materialized on demand.

    build(n) must return a prefix of length >= n and agree with earlier calls
    on the overlap; growth extends a cached read-only prefix.  block() reads
    do not move the iteration cursor.  read(positions), when given, returns
    the symbols at a nonempty int64 array of nonnegative positions without
    building a prefix; it must agree with build.
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

    def prefix(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("length must be nonnegative, got %d" % n)
        self._ensure(n)
        return self._prefix[:n]

    def block(self, start: int, count: int) -> np.ndarray:
        if start < 0 or count < 0:
            raise ValueError("block read out of range: start=%d count=%d" % (start, count))
        self._ensure(start + count)
        return self._prefix[start : start + count]

    def at(self, positions) -> np.ndarray:
        """Symbols at arbitrary nonnegative positions, as int32.

        The digit reader answers when the stream has one; otherwise the
        symbols are gathered from a prefix reaching the largest position.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return np.zeros(positions.shape, dtype=np.int32)
        if positions.min() < 0:
            raise ValueError("positions must be nonnegative")
        if self._read is None:
            return self.prefix(int(positions.max()) + 1)[positions]
        return np.asarray(self._read(positions), dtype=np.int32)

    def __iter__(self):
        return self

    def __next__(self) -> int:
        self._ensure(self.position + 1)
        value = int(self._prefix[self.position])
        self.position += 1
        return value

    def take(self, n: int) -> list:
        return [int(v) for v in self.prefix(n)]

    def __repr__(self):
        return "SymbolStream(%r)" % self.name


class DigitReader:
    """Random access to a sequence through tables on the digits of a position.

    levels is an iterator of (radix R_j, table T_j of shape (alphabet, R_j)),
    pulled on the first read that needs each level and then kept.  Writing
    p = d_0 + d_1 R_0 + d_2 R_0 R_1 + ... with 0 <= d_j < R_j,

        x[p] = T_0[T_1[... T_m[start, d_m] ..., d_1], d_0],

    which is the recursion x[q R_0 + i] = T_0[y[q], i] with y the sequence
    read from the levels above the first.  T_j[start, 0] must be start, so
    leading zero digits change nothing and reads below R_0 use one table.
    """

    def __init__(self, start: int, levels):
        self._start = int(start)
        self._pending = levels
        self._levels = []

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        top = int(positions.max())
        reach = 1  # R_0 * ... * R_{j-1}, the positions the first j levels cover
        j = 0
        while j == 0 or reach <= top:
            if j == len(self._levels):
                radix, table = next(self._pending)
                self._levels.append((radix, np.ascontiguousarray(table, dtype=np.int32)))
            reach *= self._levels[j][0]
            j += 1
        levels = self._levels[:j]
        digits = []
        q = positions
        for radix, _ in levels[:-1]:
            digits.append(q % radix)
            q = q // radix
        symbols = levels[-1][1][self._start][q]
        for (radix, table), d in zip(reversed(levels[:-1]), reversed(digits)):
            symbols = table.reshape(-1)[symbols * radix + d]
        return symbols


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
