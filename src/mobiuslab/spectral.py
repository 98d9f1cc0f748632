"""Empirical spectral statistics of observables along symbol streams.

An observable reads a finite window of offsets and maps the symbol tuple
through a lookup table.  For a stream x and observable f write
v(k) = f(x[k + w] : w in window).  The statistics are

    autocorrelation   gamma-hat(n) = (1/N) sum_{k<N} v(k+n) conj(v(k))
    periodogram       sigma-hat(j/M) = sum_{|n|<=L} (1 - |n|/(L+1))
                                        gamma-hat(n) e^{-2 pi i n j / M}
    atom mass         |(1/N) sum_{n<N} v(n) e^{-2 pi i n p/q}|^2
    Wiener average    (1/(L+1)) sum_{n<=L} |gamma-hat(n)|^2

with gamma-hat(-n) = conj(gamma-hat(n)).  The Fejer weights make the
periodogram of an exact autocorrelation sequence nonnegative; the windowed
estimate can dip below zero by a boundary term of order L^2/N, which is
clamped at zero so downstream consumers may rely on the sign.

Every statistic passes _check_reach before it reads.  Every Sarnak and
KBSZ series and atom mass is a member of one _class_sums call, whose
members share two index reads and each sum values[left(n)]
conj(factors[right(n)]): by one count of the classes for small integer
products, else by the float reduction _partial_sums; autocorrelation adds
a float table's FFT piece sums in piece order and rounds a
Gaussian-integer table's, summed as spectra over groups of pieces, into
int64, so each gives the same bits whatever the BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import LIMIT_CAP
from .streams import INT64_MAX, SymbolStream, check_positions

TABLE_CAP = 1 << 24  # below 2^31, so an int32 index reaches every table entry
GRID_CAP = 1 << 22  # spectrum at this grid peaks near 260 MiB: the periodogram, then its CSV bytes

# Most values the reduction asks for at once.  A piece's int64 positions,
# digits and table indices (256 KiB each) stay in a core's L2 cache; pieces
# of 2^19 ran the KBSZ sums 2x slower.
_LEAF = 1 << 15
_NEG_ZERO = complex(-0.0, -0.0)  # adds nothing to any value, -0.0 included
# Widest step Observable.indices reads as a run.  Over 2^22 values in
# pieces of _LEAF (best of 3, 2 cores), stepped runs against positions took
# 0.0036 / 0.037 s at step 16 on Thue-Morse and 0.0045 / 0.040 s on an S_3
# cover, and broke even near step 1000 (at 25 to 31 when a run was read
# whole).  RS and Veech still read the whole run, 2 MiB of int32 at 16.
_STRIDE_MAX = 16
# Least FFT size M of a float table's autocorrelation piece of M - L
# positions, and the FFT points of a batch of an exact table's pieces.  Float
# corr on RS and Veech at N = 2^20, L = 256 took 58-60 ms at 2^14 and 2^15,
# 67-99 ms at 2^12, 2^13 and 2^17 (medians of 5, 2 cores).
_FFT_MIN = 1 << 14
# Least M of an exact table's piece: walsh {0} took 34 ms at 2^11 and 2^12,
# 42-48 ms at 2^13 and 2^14 and 64-66 ms at 2^15.
_FFT_EXACT = 1 << 12


def _pairwise(fill, lo: int, hi: int) -> complex:
    """Sum of the values on [lo, hi) in np.add.reduce's pairwise order.

    numpy splits n complex values (2n doubles) after the largest multiple of
    8 doubles not above n, so the left half holds (n - n % 8) // 2 values.
    A node of at most _LEAF values is one np.add.reduce started at -0.0,
    which sums it exactly as numpy sums that node of the whole vector.
    """
    n = hi - lo
    if n <= _LEAF:
        return complex(np.add.reduce(fill(lo, hi), initial=_NEG_ZERO)) if n else _NEG_ZERO
    mid = lo + (n - n % 8) // 2
    return _pairwise(fill, lo, mid) + _pairwise(fill, mid, hi)


def _partial_sums(fill, checkpoints):
    """Sums of the products x[0:M] at each checkpoint M, one piece at a time.

    fill(lo, hi) returns x[lo:hi] as a new complex128 array.  A segment
    [a, b) between checkpoints is x[a] + pairwise(x[a+1:b]), the order of
    np.add.reduceat, and the running sum over the few segment sums gives
    the partial sums, bit for bit np.cumsum(np.add.reduceat(x, starts)).
    """
    segments, a = [], 0
    for b in checkpoints:
        segments.append(complex(fill(a, a + 1)[0]) + _pairwise(fill, a + 1, b))
        a = b
    return [complex(v) for v in np.cumsum(segments)]


def _class_counts(classes, size: int, checkpoints):
    """The counts of classes(0, M) in [0, size) at each checkpoint M, one int64 array counted _LEAF at a time."""
    counts, a = np.zeros(size, dtype=np.int64), 0
    for b in checkpoints:
        for lo in range(a, b, _LEAF):
            counts += np.bincount(classes(lo, min(lo + _LEAF, b)), minlength=size)
        yield counts
        a = b


def _exact_parts(table, limit: int):
    """The gate: each part's (integers, not -0.0) of the class products if they are integers with limit max|part| <= 2^53."""
    # the gate reads Python floats: each numpy ufunc faults in 64-128 KiB of
    # numpy's code on its first call, and the sums need few of them.  Where
    # the class products are integers no operand order moves a bit.
    table = table.reshape(-1).tolist()
    parts = [z.real for z in table], [z.imag for z in table]
    bound = (1 << 53) // limit
    if not all(abs(v) <= bound and v.is_integer() for part in parts for v in part):  # NaN and inf fail
        return None
    return [(np.array([int(v) for v in part], dtype=np.int64),
             np.array([v != 0 or math.copysign(1.0, v) > 0 for v in part])) for part in parts]  # not -0.0


def _count_sum(counts, table) -> complex:
    """counts . table over the classes counted, each part -0.0 when the part of every counted product is."""
    return complex(*(float(counts @ ints) if counts[signed].any() else -0.0 for ints, signed in table))


def _class_table(values, factors, width: int):
    """The product of each value at each of width right classes: the value itself when factors is None (times 1 can
    move a -0.0), else value conj(factor)."""
    return np.repeat(values, width) if factors is None else values[:, None] * np.conjugate(factors)


def _classes(left, right, radix: int):
    """classes(lo, hi): left(n) radix + right(n) for n in [lo, hi), or left itself at radix 1."""
    def classes(lo, hi):
        c = left(lo, hi)
        c *= radix
        c += right(lo, hi)
        return c

    return left if radix == 1 else classes


def _class_sums(left, values, right, members) -> list:
    """Partial sums of each member (factors, checkpoints): of values[left(n)] conj(factors[right(n)]), or of
    values[left(n)] when factors is None, bit for bit _partial_sums of the products.

    left(lo, hi) and right(lo, hi) give fresh integer indices for n in
    [lo, hi), read once for every member.  A product is entry left(n) F +
    right(n) (its class) of the member's _class_table, for F factors, and an
    unweighted member counts left(n) alone above _LEAF classes.  One count
    gives the sums of every member with at most _LEAF classes whose products
    are integers with N max|part| <= 2^53 (N its last checkpoint), exact in
    any order; every other member takes _partial_sums.
    """
    width = max((len(factors) for factors, _ in members if factors is not None), default=1)
    radix = width if len(values) * width <= _LEAF else 1
    exact = [len(values) * (radix if factors is None else width) <= _LEAF
             and _exact_parts(_class_table(values, factors, radix), points[-1]) for factors, points in members]
    # one expression, left gather first: numpy may write the product into a
    # temporary operand, and which operand comes first can move a bit
    sums = [[] if parts else _partial_sums(lambda lo, hi, factors=factors: values[left(lo, hi)] if factors is None
                                           else values[left(lo, hi)] * np.conjugate(factors[right(lo, hi)]), points)
            for parts, (factors, points) in zip(exact, members)]
    wanted = sorted(set().union(*(points for parts, (_, points) in zip(exact, members) if parts)))
    for m, counts in zip(wanted, _class_counts(_classes(left, right, radix), len(values) * radix, wanted)):
        for parts, (_, points), out in zip(exact, members, sums):
            if parts and m in points:
                out.append(_count_sum(counts, parts))
    return sums


def _check_reach(limit: int, span: int, kbsz: tuple | None = None) -> None:
    """Refuse N = limit above LIMIT_CAP, then a last read s N + span - 1 past int64 (s: larger kbsz prime, or 1)."""
    if limit > LIMIT_CAP:
        raise ValueError("N = %d is beyond the sample-size cap %d" % (limit, LIMIT_CAP))
    last = (max(kbsz) if kbsz else 1) * limit + span - 1
    if last > INT64_MAX:
        what = "kbsz pair (%d, %d)" % kbsz if kbsz else "the observable window"
        raise ValueError("%s at N = %d reads position %d, beyond the int64 limit %d" % (what, limit, last, INT64_MAX))


@dataclass(frozen=True)
class Observable:
    """Windowed lookup observable over a finite alphabet.

    values is the flat table indexed by the window tuple in mixed radix,
    most significant offset first.
    """

    window: tuple
    alphabet_size: int
    values: np.ndarray
    kind: str = "table"
    zero_mean: bool | None = None
    name: str = ""

    def __post_init__(self):
        window = tuple(int(w) for w in self.window)
        object.__setattr__(self, "window", window)
        if not window:
            raise ValueError("window must be nonempty")
        if list(window) != sorted(set(window)):
            raise ValueError("window offsets must be strictly ascending, got %r" % (window,))
        if window[0] < 0:
            raise ValueError("window offsets must be nonnegative, got %r" % (window,))
        if self.alphabet_size < 1:
            raise ValueError("alphabet size must be positive")
        size = _table_size(window, self.alphabet_size)
        values = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if len(values) != size:
            raise ValueError("table has %d entries, expected %d" % (len(values), size))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def span(self) -> int:
        return self.window[-1] + 1

    def value(self, symbols) -> complex:
        """Table value of one window tuple."""
        symbols = tuple(int(s) for s in symbols)
        if len(symbols) != len(self.window):
            raise ValueError("expected %d symbols, got %d" % (len(self.window), len(symbols)))
        for s in symbols:
            if not 0 <= s < self.alphabet_size:
                raise ValueError("symbol %d outside alphabet of size %d" % (s, self.alphabet_size))
        return complex(self.values.reshape((self.alphabet_size,) * len(symbols))[symbols])

    def _gather(self, stream: SymbolStream, read) -> np.ndarray:
        """Table indices of the windows whose symbols at offset w are read(w), a fresh int32 array."""
        if (stream.alphabet_size or 0) > self.alphabet_size:  # refused before any read
            raise ValueError("stream %r has an alphabet of size %d, the observable one of size %d"
                             % (stream.name, stream.alphabet_size, self.alphabet_size))
        idx = read(self.window[0])
        for off in self.window[1:]:
            idx *= self.alphabet_size
            idx += read(off)
        return idx

    def _check_last(self, last: int) -> None:
        """Refuse a read whose window at position last ends past INT64_MAX, before any offset is added."""
        end = last + self.span - 1
        if end > INT64_MAX:
            raise ValueError("window at position %d reads position %d, beyond the int64 limit %d" % (last, end, INT64_MAX))

    def indices(self, stream: SymbolStream, start: int, count: int, step: int = 1) -> np.ndarray:
        """Table indices of the windows at start, start + step, ..., start + step (count - 1), a fresh int32 array.

        Up to _STRIDE_MAX each window offset is one stepped run of the
        stream, stream.block(start + off, count, step); a wider step reads
        the positions with stream.at.
        """
        if start < 0 or count < 0 or step < 1:
            raise ValueError("read out of range: start=%d count=%d step=%d" % (start, count, step))
        if count == 0:
            return np.zeros(0, dtype=np.int32)
        self._check_last(start + step * (count - 1))
        if step > _STRIDE_MAX:
            return self._indices_at(stream, start + step * np.arange(count, dtype=np.int64))
        return self._gather(stream, lambda off: stream.block(start + off, count, step))

    def _indices_at(self, stream: SymbolStream, positions) -> np.ndarray:
        """Table indices of the windows at arbitrary nonnegative positions, a fresh int32 array."""
        positions = check_positions(positions)
        if positions.size:
            self._check_last(int(positions.max()))
        return self._gather(stream, lambda off: stream.at(positions + off))

    def evaluate(self, stream: SymbolStream, start: int, count: int, step: int = 1) -> np.ndarray:
        """v(start), v(start + step), ..., v(start + step (count - 1)) as a complex vector."""
        return self.values[self.indices(stream, start, count, step)]

    def evaluate_at(self, stream: SymbolStream, positions) -> np.ndarray:
        """v at arbitrary nonnegative positions.

        Each window offset is read with stream.at, so the cost follows
        len(positions), not the largest position.
        """
        return self.values[self._indices_at(stream, positions)]


def _table_size(window, alphabet_size) -> int:
    """Entries of a table over the window, refused above TABLE_CAP before any is allocated."""
    size = alphabet_size ** len(window)
    if size > TABLE_CAP:
        raise ValueError("window of %d symbols over %d letters needs %d table entries (cap %d)"
                         % (len(window), alphabet_size, size, TABLE_CAP))
    return size


def walsh_window(coords) -> tuple:
    """The window of make_walsh(coords), refused above TABLE_CAP: the coordinates in order, or (0,) for none."""
    window = tuple(sorted(int(c) for c in set(coords))) or (0,)
    _table_size(window, 2)
    return window


def make_walsh(coords, name: str | None = None) -> Observable:
    """f(x) = (-1)^(sum of x at the coordinates) on the binary alphabet.

    The empty coordinate set gives the constant 1 observable on window {0}.
    """
    coords = tuple(sorted(int(c) for c in set(coords)))
    window = walsh_window(coords)
    # the Kronecker product of one factor [1, -1] per coordinate: each doubles v to [v, -v]
    values = np.ones(1 if coords else 2, dtype=np.int8)
    for _ in coords:
        values = np.concatenate((values, -values))
    return Observable(
        window=window,
        alphabet_size=2,
        values=values,
        kind="walsh",
        zero_mean=bool(coords),
        name=name or ("walsh{%s}" % ",".join(map(str, coords))),
    )


def indicator_window(block, offset: int, alphabet_size: int) -> tuple:
    """The window of make_block_indicator(block, offset, alphabet_size), refused as it refuses."""
    if not block:
        raise ValueError("block must be nonempty")
    for b in block:
        if not 0 <= b < alphabet_size:
            raise ValueError("block symbol %d outside alphabet of size %d" % (b, alphabet_size))
    window = tuple(range(offset, offset + len(block)))
    _table_size(window, alphabet_size)
    return window


def make_block_indicator(block, offset: int = 0, alphabet_size: int = 2, name: str | None = None) -> Observable:
    """1 when the window starting at the offset spells the block, else 0."""
    block = tuple(int(b) for b in block)
    window = indicator_window(block, offset, alphabet_size)
    values = np.zeros(alphabet_size ** len(window), dtype=np.complex128)
    values.reshape((alphabet_size,) * len(block))[block] = 1.0
    return Observable(
        window=window,
        alphabet_size=alphabet_size,
        values=values,
        kind="indicator",
        zero_mean=False,
        name=name or ("indicator[%s@%d]" % ("".join(map(str, block)), offset)),
    )


def make_symbol_table(values, alphabet_size: int | None = None, name: str | None = None) -> Observable:
    """Single-symbol observable; zero_mean records whether the values sum to 0."""
    if isinstance(values, dict):
        if alphabet_size is None:
            alphabet_size = max(int(k) for k in values) + 1
        table = np.zeros(alphabet_size, dtype=np.complex128)
        seen = set()
        for k, v in values.items():
            k = int(k)
            if not 0 <= k < alphabet_size:
                raise ValueError("symbol %d outside alphabet of size %d" % (k, alphabet_size))
            table[k] = v
            seen.add(k)
        if len(seen) != alphabet_size:
            missing = sorted(set(range(alphabet_size)) - seen)
            raise ValueError("table must cover the whole alphabet, missing symbols %s" % missing)
    else:
        table = np.asarray(list(values), dtype=np.complex128)
        if alphabet_size is not None and len(table) != alphabet_size:
            raise ValueError("table has %d entries for alphabet of size %d" % (len(table), alphabet_size))
        alphabet_size = len(table)
        if alphabet_size == 0:
            raise ValueError("table must be nonempty")
    return Observable(
        window=(0,),
        alphabet_size=alphabet_size,
        values=table,
        kind="table",
        zero_mean=bool(abs(table.sum()) < 1e-12),
        name=name or "table",
    )


def linear_combination(terms, name: str | None = None) -> Observable:
    """sum of coeff * observable over a shared alphabet (windows may differ)."""
    terms = [(complex(c), obs) for c, obs in terms]
    if not terms:
        raise ValueError("need at least one term")
    alphabet = {obs.alphabet_size for _, obs in terms}
    if len(alphabet) != 1:
        raise ValueError("terms use different alphabets: %s" % sorted(alphabet))
    alphabet_size = alphabet.pop()
    window = tuple(sorted({w for _, obs in terms for w in obs.window}))
    _table_size(window, alphabet_size)
    values = np.zeros((alphabet_size,) * len(window), dtype=np.complex128)
    for coeff, obs in terms:
        # the term's table over the union window: its own offsets as axes, length 1 at the others
        table = obs.values.reshape([alphabet_size if w in obs.window else 1 for w in window])
        # parts apart, so each entry is Python's complex product and sum, bit for bit
        values.real += coeff.real * table.real - coeff.imag * table.imag
        values.imag += coeff.real * table.imag + coeff.imag * table.real
    return Observable(
        window=window,
        alphabet_size=alphabet_size,
        values=values,
        kind="combination",
        zero_mean=None,
        name=name or "combination",
    )


@dataclass(frozen=True)
class AutocorrelationEstimate:
    values: np.ndarray = field(repr=False)  # gamma-hat(0..max_lag)
    max_lag: int
    sample_size: int
    note: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _exact_correlation(values: np.ndarray, size: int, gate: int | None = None) -> int:
    """Most pieces of FFT size M = size whose summed spectra round to their exact sum; 0 if none.

    The values must be Gaussian integers, and one piece of FFT size gate
    (default M) must pass the one-piece bound.  An FFT convolution of size
    M = 2^m errs by at most (eps/2) (3m (1 + sqrt 5 + b) + sqrt 5) ||x|| ||y||
    with b the twiddle error in units of eps/2 (Percival, Math. Comp. 72,
    2003); a piece has ||x|| ||y|| <= M max|v|^2, for the parts' summed
    correlations too (Cauchy-Schwarz), and 16 eps log2(M) covers b up to 2.
    K pieces share one inverse FFT of their summed spectra conj(F) G.  The
    inverse is linear, so the K pieces' error terms add: 16 eps log2(M) K M
    max|v|^2.  Adding K spectra errs by at most (K - 1) eps/2 (1 + O(eps))
    sum_k |conj(F_k) G_k| in a bin, which the inverse's 1/M and Parseval
    (sum_j |F_j| |G_j| <= M ||x|| ||y||) make (K - 1) eps/2 K M max|v|^2 at a
    lag; 2 (K - 1) eps covers it.  So K pieces are exact while
    (16 log2(M) + 2 (K - 1)) eps K M max|v|^2 < 1/2, the one-piece bound at
    K = 1.  That keeps group sums below 2^53 and, with the bound at
    M >= _FFT_MIN, the total over N <= LIMIT_CAP values below 2^63.  K is
    capped at LIMIT_CAP, more pieces than any call has.
    """
    top = np.finfo(np.float64).eps * float(np.max(values.real ** 2 + values.imag ** 2))
    if not np.array_equal(values, np.rint(values)) or 16 * math.log2(gate or size) * (gate or size) * top >= 0.5:
        return 0  # NaN fails the first test, inf the second
    log, unit = 16 * math.log2(size), size * top
    # one past the root of 2 unit K^2 + (log - 2) unit K = 1/2, then down to the first K that holds
    group = min(int((math.sqrt((log - 2) ** 2 + 4 / unit) - log + 2) / 4) + 1 if unit else LIMIT_CAP, LIMIT_CAP)
    while group and (log + 2 * (group - 1)) * group * unit >= 0.5:
        group -= 1
    return group


def autocorrelation(stream: SymbolStream, obs: Observable, sample_size: int, max_lag: int) -> AutocorrelationEstimate:
    """gamma-hat(n) for n = 0..max_lag, from pieces of P = M - L positions.

    A piece reads the table indices of v(lo..lo + P + L - 1) and correlates
    its first P values with all of them by real FFTs of size M, the table's
    real and imaginary parts apart (M: powers of two).  Exact tables (those
    _exact_correlation passes at M = max(_FFT_MIN, 2 (L + 1))) take M =
    max(_FFT_EXACT, 2 (L + 1)), about _FFT_MIN / M pieces per 2-D FFT and
    one inverse FFT per group of K pieces' summed spectra, rounded into
    int64; no batch crosses a group.  Other tables take the first M, one
    piece at a time, and add the float piece sums in piece order.
    """
    _check_reach(sample_size, obs.span + max_lag - 1)  # v(0..N+L-1), L - 1 past a Sarnak sum's reach
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative, got %d" % max_lag)
    if sample_size < 4 * max_lag or sample_size < 1:
        raise ValueError("need sample_size >= 4 * max_lag >= 0, got N=%d L=%d" % (sample_size, max_lag))
    from numpy.fft import irfft, rfft  # not loaded until a correlation needs it

    lags, least = max_lag + 1, 1 << (2 * max_lag + 1).bit_length()
    size, gate = max(_FFT_EXACT, least), max(_FFT_MIN, least)
    group = _exact_correlation(obs.values, size, gate)
    exact, rows = group > 0, max(1, _FFT_MIN // size)
    if not exact:
        size, rows, group = gate, 1, 1
    piece = size - max_lag
    pieces = -(-sample_size // piece)
    parts = [obs.values.real.copy()] + [obs.values.imag.copy()] * bool(np.any(obs.values.imag))
    sums = np.zeros((2, lags), dtype=np.int64 if exact else np.float64)
    for first in range(0, pieces, group):
        end, spectra = min(first + group, pieces), [_NEG_ZERO] * 2
        for batch in range(first, end, rows):
            lo, width = batch * piece, min(rows, end - batch) * piece  # P values per piece of the batch
            idx = obs.indices(stream, lo, min(width, sample_size - lo) + max_lag)
            ends = []
            for part in parts:
                buf = np.zeros(width + max_lag)
                part.take(idx, out=buf[: len(idx)])
                g = rfft(np.lib.stride_tricks.sliding_window_view(buf, size)[::piece], size, axis=1)
                buf[len(idx) - max_lag :] = 0  # x: each row's first P values, none at or past N
                ends.append((np.conj(rfft(buf[:width].reshape(-1, piece), size, axis=1)), g))
            if len(ends) == 2:
                (fa, ga), (fb, gb) = ends
                products = [fa * ga + fb * gb, fa * gb - fb * ga]
            else:
                products = [ends[0][0] * ends[0][1]]
            # -0.0 adds nothing, so a float table's one-piece spectrum keeps its bits
            spectra = [s + np.add.reduce(p, axis=0, initial=_NEG_ZERO) for s, p in zip(spectra, products)]
        for row, spectrum in zip(sums, spectra):
            part = irfft(spectrum, size)[:lags]
            row += np.rint(part).astype(np.int64) if exact else part
    values = np.empty(lags, dtype=np.complex128)
    values.real, values.imag = sums
    values /= sample_size  # numpy multiplies a complex value by 1 / N; the report bytes follow that rounding
    return AutocorrelationEstimate(
        values=values,
        max_lag=max_lag,
        sample_size=sample_size,
        note="%s via %s" % (stream.name, obs.name or obs.kind),
    )


def check_grid(grid_size: int) -> None:
    """Refuse a periodogram grid below 1 or above GRID_CAP."""
    if grid_size < 1:
        raise ValueError("grid size must be positive, got %d" % grid_size)
    if grid_size > GRID_CAP:
        raise ValueError("grid size %d is beyond the cap %d" % (grid_size, GRID_CAP))


def periodogram(estimate: AutocorrelationEstimate, grid_size: int) -> np.ndarray:
    """Fejer-weighted spectral density on the grid j/M, clamped at zero."""
    check_grid(grid_size)
    L = estimate.max_lag
    weights = 1.0 - np.arange(L + 1) / (L + 1.0)
    weighted = weights * estimate.values
    # fold lags by residue mod M, then one DFT gives all grid points
    folded = np.zeros(grid_size, dtype=np.complex128)
    np.add.at(folded, np.arange(1, L + 1) % grid_size, weighted[1:])
    spectrum = weighted[0].real + 2.0 * np.fft.fft(folded).real
    return np.maximum(spectrum, 0.0)


def atom_mass(stream: SymbolStream, obs: Observable, frequency, sample_size: int) -> float:
    """Squared Fourier coefficient of the observable at a rational frequency p/q."""
    p, q = (int(v) for v in frequency)
    if q < 1:
        raise ValueError("denominator must be positive, got %d" % q)
    if sample_size < q:
        raise ValueError("need at least one full period, N=%d < q=%d" % (sample_size, q))
    _check_reach(sample_size, obs.span - 1)  # v(0..N-1), one short of a Sarnak sum's reach
    # v(n) times the phase of n mod q, as v(n) conj(conj(phase)): conj is exact
    conjugates = np.conjugate(np.exp(-2j * np.pi * p * np.arange(q) / q))
    ((total,),) = _class_sums(lambda lo, hi: obs.indices(stream, lo, hi - lo), obs.values,
                              lambda lo, hi: np.arange(lo, hi) % q, [(conjugates, (sample_size,))])
    return float(abs(total / sample_size) ** 2)


def wiener_average(estimate: AutocorrelationEstimate) -> float:
    """Mean of |gamma-hat|^2 over lags 0..L; tends to the sum of atom masses."""
    return float(np.mean(np.abs(estimate.values) ** 2))
