"""Lazy one-sided symbol sequences, read in runs and at positions.

prefix(), block() and iteration read runs, contiguous (Sarnak sums,
autocorrelations) or stepped (KBSZ sums); at() reads arbitrary positions.
Every stream reads both through its one reader, at a cost that follows
the symbols it returns.  Each system computes a symbol from the digits of
its position: substitution and Morse streams through DigitReader, the one
place digit levels are built, which copies the kept symbols row by row or
reads their positions, whichever costs less; Veech through
odometer._psi_run, which writes each stage on its kept points, and
_tau_at; RS through arith.PatternReader, which reads a run whole up to its
own bound on the step.  Composed streams (hat, factor) read their source
at the same positions, wherever they lie.
"""

from __future__ import annotations

import itertools

import numpy as np

# Least entries (alphabet size x radix) of a digit level table: radix 2^16
# for a binary alphabet, which reads any position below 2^32 in two gathers,
# and a few MiB per table however many symbols the alphabet has.
LEVEL_MIN = 1 << 17
# Most entries of a product of steps (64 MiB as int32): a step too wide to
# multiply by the next without passing it is a level of its own.
LEVEL_MAX = 1 << 24

INT64_MAX = (1 << 63) - 1  # the last position a stream can read


def check_positions(positions) -> np.ndarray:
    """positions as an int64 array, refused with a ValueError unless each is in 0..INT64_MAX."""
    try:
        positions = np.asarray(positions, dtype=np.int64)
    except OverflowError:
        raise ValueError("positions must not pass the int64 limit %d" % INT64_MAX) from None
    if positions.size and positions.min() < 0:
        raise ValueError("positions must be nonnegative")
    return positions


class SymbolStream:
    """Deterministic sequence over {0..alphabet_size-1}, read through read(key).

    read(key) returns the symbols at a slice(lo, hi), 0 <= lo <= hi <= 2^63,
    at every step-th position of one, slice(lo, hi, step > 1), or at a
    nonempty int64 array of nonnegative positions, in an array no other read
    shares.  prefix(), block(), at() and iteration all call it; block()
    reads do not move the iteration cursor.
    """

    def __init__(self, read, name: str = "stream", alphabet_size: int | None = None, letters=None):
        self._read = read
        self.name = name
        self.alphabet_size = alphabet_size
        self.letters = tuple(letters) if letters is not None else None
        self.position = 0

    def _get(self, key) -> np.ndarray:
        """Symbols at a slice, stepped or not, or at a nonempty array of positions."""
        return np.asarray(self._read(key), dtype=np.int32)

    def prefix(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("length must be nonnegative, got %d" % n)
        return self._get(slice(0, n))

    def block(self, start: int, count: int, step: int = 1) -> np.ndarray:
        """Symbols at start, start + step, ..., start + step (count - 1), as int32."""
        stop = start + step * (count - 1) + 1 if count else start
        if start < 0 or count < 0 or step < 1 or stop > 1 << 63:
            raise ValueError("block read out of range: start=%d count=%d step=%d" % (start, count, step))
        return self._get(slice(start, stop, step) if step > 1 else slice(start, stop))

    def at(self, positions) -> np.ndarray:
        """Symbols at arbitrary positions in 0..INT64_MAX, as int32."""
        positions = check_positions(positions)
        if positions.size == 0:
            return np.zeros(positions.shape, dtype=np.int32)
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

    A step is an (alphabet, lambda) table whose row a is the word written for
    symbol a; the steps are head[0], head[1], ..., then tail forever.  Level
    j, of width R_j, multiplies consecutive steps, T[S].reshape(alphabet, -1),
    until it holds at least LEVEL_MIN entries or the next product would hold
    more than LEVEL_MAX; it is built on the first read that needs it.  Every
    level past the head is the same product of tail steps, held as one array.
    Writing p = d_0 + d_1 R_0 + d_2 R_0 R_1 + ... with 0 <= d_j < R_j,

        x[p] = T_0[T_1[... T_m[start, d_m] ..., d_1], d_0],

    which is the recursion x[q R_0 + i] = T_0[y[q], i] with y the sequence
    read from the levels above the first.  T_j[start, 0] must be start, so
    leading zero digits change nothing and reads below R_0 use one table.
    A run [lo, hi) reads y at lo // R_0 .. (hi - 1) // R_0 through the
    levels above the first and copies every step-th entry of those rows of
    T_0 row by row, holding only the symbols it keeps, or reads their positions.
    """

    def __init__(self, start: int, head, tail):
        self._start = int(start)
        self._pending = _digit_levels(tuple(head), tail)
        self._levels = []

    def _level(self, j: int):
        while len(self._levels) <= j:
            self._levels.append(next(self._pending))
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
        step, first, last = key.step or 1, key.start // radix, (key.stop - 1) // radix
        # read the kept positions once a copied row keeps under 128 symbols (over 2^15, 0.31 / 0.23 ms at
        # R_0 / 64 on Thue-Morse) or past step 16 where rows are gathered whole (0.23 / 0.22 ms at 24, 2^12)
        if step > (16 if radix < 1 << 13 else radix >> 7):
            kept = key.start + step * np.arange(len(range(key.start, key.stop, step)), dtype=np.int64)
            return self._at(kept, key.stop - 1, 0)
        y = self._at(np.arange(first, last + 1, dtype=np.int64), last, 1)
        col = key.start - first * radix  # of the first symbol, in the first row
        # rows narrower than 2^13 are gathered whole: over 2^22 values in runs of 2^15 (tables of
        # 2^17 entries, best of 5, 2 cores), a gather against a row copy took 0.9 / 1.3 ms at step 1
        # and 19.8 / 11.3 ms at step 16 for radix 2^12, 0.8 / 1.0 and 17.8 / 7.3 ms for 2^13 (3.1 /
        # 2.7 ms at step 3), and 1.4 / 0.8 and 28.5 / 3.3 ms for 2^16
        if radix < 1 << 13:
            return np.ascontiguousarray(table[y].reshape(-1)[col : key.stop - first * radix : step])
        out, done = np.empty(len(range(key.start, key.stop, step)), dtype=np.int32), 0
        for row in y.tolist():
            part = table[row, col : col + step * (len(out) - done) : step]
            out[done : done + len(part)] = part
            done, col = done + len(part), (col - radix) % step
        return out


def _digit_levels(head: tuple, tail: np.ndarray):
    """(radix, table) of each digit level of DigitReader, head levels first."""

    def step(i):
        return head[i] if i < len(head) else tail

    used = 0  # steps multiplied into the levels so far
    while True:
        past_head, table = used >= len(head), step(used)
        used += 1
        while table.size < LEVEL_MIN and table.size * step(used).shape[1] <= LEVEL_MAX:
            table = table[step(used)].reshape(len(table), -1)
            used += 1
        # a fresh copy that frees the product: glibc raises its mmap threshold
        # to the largest mmapped block freed, and with the product kept the
        # threshold stays below the pieces of a sum (int32 indices and runs of
        # 128 KiB and more, complex products on the float path), which then
        # page-fault.  Under PYTHONDONTWRITEBYTECODE=1 each process compiles
        # src/ on import, so the heap also follows the bytes of modules a run
        # never calls: the peak RSS and run time of a KBSZ run can move with
        # an edit to spectral.py, and do not with cached bytecode
        table = np.array(table, dtype=np.int32, order="C")
        if past_head:
            yield from itertools.repeat((table.shape[1], table))
        yield table.shape[1], table


def word_stream(values, name: str = "word", alphabet_size: int | None = None, letters=None) -> SymbolStream:
    """Wrap a finite word; reads past the end raise ValueError."""
    arr = np.asarray(values, dtype=np.int32)

    def read(key):
        end = key.stop if isinstance(key, slice) else int(key.max()) + 1
        if end > len(arr):
            raise ValueError("word %r has %d symbols, needed %d" % (name, len(arr), end))
        return arr[key].copy()

    return SymbolStream(read, name=name, alphabet_size=alphabet_size, letters=letters)


def periodic_stream(word, name: str = "periodic", alphabet_size: int | None = None) -> SymbolStream:
    """Infinite repetition of a finite word."""
    base = np.asarray(word, dtype=np.int32)
    if len(base) == 0:
        raise ValueError("period must be nonempty")

    def read(key):
        if isinstance(key, slice):
            step = key.step or 1
            key = key.start % len(base) + step * np.arange(len(range(key.start, key.stop, step)), dtype=np.int64)
        return base[key % len(base)]

    return SymbolStream(read, name=name, alphabet_size=alphabet_size)
