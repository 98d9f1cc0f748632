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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .arith import LIMIT_CAP
from .streams import SymbolStream

TABLE_CAP = 1 << 24  # below 2^31, so an int32 index reaches every table entry
GRID_CAP = 1 << 22  # spectrum at this grid peaks near 600 MiB, most of it the CSV text


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
        idx = 0
        for s in symbols:
            if not 0 <= s < self.alphabet_size:
                raise ValueError("symbol %d outside alphabet of size %d" % (s, self.alphabet_size))
            idx = idx * self.alphabet_size + s
        return complex(self.values[idx])

    def _gather(self, read) -> np.ndarray:
        """Table values of the windows whose symbols at offset w are read(w), a fresh int32 array."""
        idx = read(self.window[0])
        for off in self.window[1:]:
            idx *= self.alphabet_size
            idx += read(off)
        return self.values[idx]

    def evaluate(self, stream: SymbolStream, start: int, count: int) -> np.ndarray:
        """v(start), ..., v(start + count - 1) as a complex vector."""
        return self._gather(lambda off: stream.block(start + off, count))

    def evaluate_at(self, stream: SymbolStream, positions) -> np.ndarray:
        """v at arbitrary nonnegative positions.

        Each window offset is read with stream.at, so the cost follows
        len(positions), not the largest position.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) == 0:
            return np.zeros(0, dtype=np.complex128)
        if positions.min() < 0:
            raise ValueError("positions must be nonnegative")
        return self._gather(lambda off: stream.at(positions + off))


def _table_size(window, alphabet_size) -> int:
    """Entries of a table over the window, refused above TABLE_CAP before any is allocated."""
    size = alphabet_size ** len(window)
    if size > TABLE_CAP:
        raise ValueError("window of %d symbols over %d letters needs %d table entries (cap %d)"
                         % (len(window), alphabet_size, size, TABLE_CAP))
    return size


def make_walsh(coords, alphabet_size: int = 2, name: str | None = None) -> Observable:
    """f(x) = (-1)^(sum of x at the coordinates); binary alphabets only.

    The empty coordinate set gives the constant 1 observable on window {0}.
    """
    if alphabet_size != 2:
        raise ValueError("walsh observables need a binary alphabet, got size %d" % alphabet_size)
    coords = tuple(sorted(int(c) for c in set(coords)))
    window = coords if coords else (0,)
    _table_size(window, 2)
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


def make_block_indicator(block, offset: int = 0, alphabet_size: int = 2, name: str | None = None) -> Observable:
    """1 when the window starting at the offset spells the block, else 0."""
    block = tuple(int(b) for b in block)
    if not block:
        raise ValueError("block must be nonempty")
    index = 0
    for b in block:
        if not 0 <= b < alphabet_size:
            raise ValueError("block symbol %d outside alphabet of size %d" % (b, alphabet_size))
        index = index * alphabet_size + b
    window = tuple(range(offset, offset + len(block)))
    values = np.zeros(_table_size(window, alphabet_size), dtype=np.complex128)
    values[index] = 1.0
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
    slots = {w: i for i, w in enumerate(window)}

    def fn(symbols):
        total = 0.0 + 0.0j
        for coeff, obs in terms:
            total += coeff * obs.value(tuple(symbols[slots[w]] for w in obs.window))
        return total

    size = _table_size(window, alphabet_size)
    symbols = itertools.product(range(alphabet_size), repeat=len(window))
    return Observable(
        window=window,
        alphabet_size=alphabet_size,
        values=np.fromiter(map(fn, symbols), dtype=np.complex128, count=size),
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


def autocorrelation(stream: SymbolStream, obs: Observable, sample_size: int, max_lag: int) -> AutocorrelationEstimate:
    """gamma-hat(n) for n = 0..max_lag from N consecutive window reads."""
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative, got %d" % max_lag)
    if sample_size < 4 * max_lag or sample_size < 1:
        raise ValueError("need sample_size >= 4 * max_lag >= 0, got N=%d L=%d" % (sample_size, max_lag))
    if sample_size > LIMIT_CAP:
        raise ValueError("N = %d is beyond the sample-size cap %d" % (sample_size, LIMIT_CAP))
    v = obs.evaluate(stream, 0, sample_size + max_lag)
    base = v[:sample_size]
    values = np.array(
        [np.vdot(base, v[n : n + sample_size]) / sample_size for n in range(max_lag + 1)]
    )
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
    p, q = frequency
    p, q = int(p), int(q)
    if q < 1:
        raise ValueError("denominator must be positive, got %d" % q)
    if sample_size < q:
        raise ValueError("need at least one full period, N=%d < q=%d" % (sample_size, q))
    v = obs.evaluate(stream, 0, sample_size)
    phase_period = np.exp(-2j * np.pi * p * np.arange(q) / q)
    reps = -(-sample_size // q)
    phases = np.tile(phase_period, reps)[:sample_size]
    coeff = np.dot(v, phases) / sample_size
    return float(abs(coeff) ** 2)


def wiener_average(estimate: AutocorrelationEstimate) -> float:
    """Mean of |gamma-hat|^2 over lags 0..L; tends to the sum of atom masses."""
    return float(np.mean(np.abs(estimate.values) ** 2))
