"""Weighted orbit averages with reproducible reductions and reports.

Sarnak sums pair an observable along a stream with a multiplicative weight,

    S_M = (1/M) sum_{n=1..M} v(n) w(n),

and the bilinear test sums compare two prime dilations of the same orbit,

    C_M = (1/M) sum_{n=1..M} v(r n) conj(v(s n)).

Partial sums at ascending checkpoints pass spectral._check_reach first,
the one rule for the cap and the int64 reach.  Every series is a member of
one call of spectral._class_sums, which sums values[left(n)]
conj(factors[right(n)]) for each member over two shared index reads: a
KBSZ sum reads idx(rn) and idx(sn) into the table, and a Sarnak sum idx(n)
and the weight state of n (_weight_states) into its kind's weights.  It
counts the classes left F + right of each piece for every member whose
products are small integers, and sums any other member's products in the
fixed order of np.cumsum(np.add.reduceat(products, starts))
(spectral._partial_sums); both give those bytes, so reports are
bit-identical on every rerun.  Everything runs on one thread; the CLI's
--workers flag is accepted and has no effect.

Sarnak sums read each piece as a run of the stream and weight it from the
table.  The bilinear sums read v(pn) for a piece of n through
Observable.indices with step p: up to spectral._STRIDE_MAX as one stepped
run, SymbolStream.block(start, count, p), and above it at the positions pn
with SymbolStream.at.  Every system the CLI binds is read from the digits
of each position, so the sums hold a few pieces, not an N-long vector.  A
substitution or Morse run copies only the count symbols it keeps; RS and
Veech read p (count - 1) + 1 symbols and keep every p-th, so a run holds
at most _STRIDE_MAX pieces of symbols whatever s is.

The CLI's run sums each run of consecutive Sarnak experiments over one
(observable, system) pair as the members of one _class_sums call
(_sarnak_reports): one read of the window index and of the weight state
per piece, the state w(n) + 1 under one kind and 2 [lambda(n) = 1] +
[mu(n) != 0] under both.  Each member reads its own checkpoints, so its
bytes are those it has alone.  block_sweep is one count over the window
0..k - 1 and the weight state.  A weighted sum reads its kind's one weight
table (one byte per n).
"""

from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .arith import WeightTable, is_prime
from .spectral import (Observable, _check_reach, _class_counts, _class_sums, _class_table, _classes, _count_sum,
                       _exact_parts, make_block_indicator)
from .streams import SymbolStream


def pow2_checkpoints(limit: int) -> tuple:
    """1, 2, 4, ... up to limit, with limit itself always included."""
    if limit < 1:
        raise ValueError("limit must be positive, got %d" % limit)
    points = tuple(1 << k for k in range(int(limit).bit_length()))
    return points if points[-1] == limit else points + (limit,)


def _validate_checkpoints(checkpoints) -> tuple:
    points = tuple(int(c) for c in checkpoints)
    if not points:
        raise ValueError("need at least one checkpoint")
    if any(c < 1 for c in points):
        raise ValueError("checkpoints must be positive, got %s" % (points,))
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError("checkpoints must be strictly ascending, got %s" % (points,))
    return points


@dataclass(frozen=True)
class ConvergenceReport:
    checkpoints: tuple
    values: tuple  # complex partial averages, one per checkpoint
    sample_size: int
    system: str
    observable: str
    weight: str | None = None
    primes: tuple | None = None

    @property
    def final(self) -> complex:
        return self.values[-1]

    def rows(self):
        return [(m, v.real, v.imag) for m, v in zip(self.checkpoints, self.values)]


def _report(partials, checkpoints, stream: SymbolStream, obs: Observable, **tags) -> ConvergenceReport:
    """The averages of the partial sums at each checkpoint."""
    return ConvergenceReport(
        checkpoints=checkpoints,
        values=tuple(s / m for s, m in zip(partials, checkpoints)),
        sample_size=checkpoints[-1],
        system=stream.name,
        observable=obs.name or obs.kind,
        **tags,
    )


_SIGNS = np.array([-1, 0, 1], dtype=np.int8)  # the weights, a weight w at column w + 1
# The column of _SIGNS at each state 2 [lambda(n) = 1] + [mu(n) != 0] of n under both kinds; mu(n) = lambda(n)
# wherever mu(n) != 0.
_BOTH = {"moebius": [1, 0, 1, 2], "liouville": [0, 0, 2, 2]}


def _weight_states(tables: dict):
    """(states, factors): states(lo, hi) gives the weight state of n = 1 + lo .. hi under the tables (kind -> table),
    and factors[kind] the kind's weight at each state.

    The state is w(n) + 1 under one kind and 2 [lambda(n) = 1] + [mu(n) != 0]
    under both; it is 0 past every table's reach.  Past lambda's reach its bit
    is [mu(n) = 1], lambda's wherever mu(n) != 0; no sum reads past mu's.
    """
    both = len(tables) == 2

    def states(lo, hi):
        s = np.zeros(hi - lo, dtype=np.int8)
        for kind, table in tables.items():
            w = table.values[1 + lo : 1 + hi]
            s[: len(w)] += w + 1 if not both or kind == "liouville" else w != 0
            if both and kind == "moebius":
                end = max(0, tables["liouville"].limit - lo)
                s[end : len(w)] += 2 * (w[end:] == 1)
        return s

    return states, {kind: _SIGNS[_BOTH[kind]] if both else _SIGNS for kind in tables}


def _sarnak_reports(stream: SymbolStream, obs: Observable, members) -> list:
    """The Sarnak report of each member (weights, checkpoints), from one _class_sums over the members' weight states.

    One table per kind, reaching its kind's last checkpoint.
    """
    tables = {weights.kind: weights for weights, _ in members if weights is not None}
    states, factors = _weight_states(tables)
    sums = _class_sums(lambda lo, hi: obs.indices(stream, 1 + lo, hi - lo), obs.values, states,
                       [(None if weights is None else factors[weights.kind], points) for weights, points in members])
    return [_report(partials, points, stream, obs, weight="none" if weights is None else weights.kind)
            for partials, (weights, points) in zip(sums, members)]


def sarnak_series(
    stream: SymbolStream,
    obs: Observable,
    weights: WeightTable | None,
    checkpoints,
) -> ConvergenceReport:
    """Weighted averages S_M at each checkpoint; orbit positions start at 1."""
    checkpoints = _validate_checkpoints(checkpoints)
    limit = checkpoints[-1]
    _check_reach(limit, obs.span)
    if weights is not None and weights.limit < limit:
        raise ValueError("weight table reaches %d, need %d" % (weights.limit, limit))
    return _sarnak_reports(stream, obs, [(weights, checkpoints)])[0]


def kbsz_series(
    stream: SymbolStream,
    obs: Observable,
    r: int,
    s: int,
    checkpoints,
) -> ConvergenceReport:
    """Bilinear averages C_M = (1/M) sum v(rn) conj(v(sn)) at each checkpoint.

    Each piece reads v at r n and s n through Observable.indices with steps
    r and s: a strided run for a step up to _STRIDE_MAX, positions above it.
    The reduction fixes the order, so the sums depend neither on the piece
    size nor on the read.  Positions must fit in int64.
    """
    r, s = int(r), int(s)
    if r < 1 or s < 1:
        raise ValueError("dilations must be positive, got r=%d s=%d" % (r, s))
    checkpoints = _validate_checkpoints(checkpoints)
    _check_reach(checkpoints[-1], obs.span, (r, s))
    left, right = (lambda lo, hi, p=p: obs.indices(stream, p * (1 + lo), hi - lo, p) for p in (r, s))
    (partials,) = _class_sums(left, obs.values, right, [(obs.values, checkpoints)])
    return _report(partials, checkpoints, stream, obs, primes=(r, s))


def block_sweep(
    stream: SymbolStream,
    k: int,
    weights: WeightTable | None,
    checkpoints,
    alphabet_size: int | None = None,
):
    """One Sarnak report per length-k block seen, keyed by the block tuple, from one count over the window 0..k - 1.

    The blocks are the nonzero counts over n = 1..N and the window at 0.  A
    block's products are 1 or 0 times the weight at each state, so one gate
    serves every block, and each report counts its own classes and the
    others at each state under the rule of spectral._count_sum.
    """
    if k < 1:
        raise ValueError("block length must be positive, got %d" % k)
    checkpoints = _validate_checkpoints(checkpoints)
    limit = checkpoints[-1]
    _check_reach(limit, k)  # the windows start at 0..N, as far as a Sarnak sum at N reads
    if weights is not None and weights.limit < limit:
        raise ValueError("weight table reaches %d, need %d" % (weights.limit, limit))
    if alphabet_size is None:
        alphabet_size = stream.alphabet_size
    if alphabet_size is None:
        raise ValueError("alphabet size unknown, pass alphabet_size")
    obs = make_block_indicator((0,) * k, 0, alphabet_size)  # any block: its window is every block's
    kind = None if weights is None else weights.kind
    states, factors = _weight_states({} if weights is None else {kind: weights})
    width = len(factors[kind]) if factors else 1
    parts = _exact_parts(_class_table(np.array([1.0, 0.0], dtype=np.complex128), factors.get(kind), width), limit)
    classes = _classes(lambda lo, hi: obs.indices(stream, 1 + lo, hi - lo), states, width)
    seen = [(np.flatnonzero(c), c[c > 0]) for c in _class_counts(classes, len(obs.values) * width, checkpoints)]
    blocks = np.union1d(seen[-1][0] // width, obs.indices(stream, 0, 1))
    own = []  # at each checkpoint, each block's counts at each state and their sum over the blocks
    for nonzero, c in seen:
        counts = np.zeros((len(blocks), width), dtype=np.int64)
        counts[np.searchsorted(blocks, nonzero // width), nonzero % width] = c
        own.append((counts, counts.sum(axis=0)))
    reports = {}
    for i, b in enumerate(blocks):
        block = tuple(int(x) for x in np.unravel_index(b, (alphabet_size,) * k))
        sums = [_count_sum(np.concatenate((counts[i], total - counts[i])), parts) for counts, total in own]
        reports[block] = _report(sums, checkpoints, stream, make_block_indicator(block, 0, alphabet_size),
                                 weight=kind or "none")
    return reports


def check_run(sample_size: int, checkpoints, kbsz, span: int) -> tuple:
    """(checkpoints, kbsz) of a run over an observable of the given span, after every check made before a read.

    The checks: a positive sample size, the kbsz primes, the sample-size cap, the checkpoint grid (None:
    powers of two up to sample_size), the int64 reach, and the grid against the sample size.
    """
    if sample_size < 1:
        raise ValueError("N must be positive, got %d" % sample_size)
    if kbsz is not None:
        r, s = kbsz = tuple(int(p) for p in kbsz)
        try:
            primes = r != s and is_prime(r) and is_prime(s)
        except ValueError as exc:
            raise ValueError("kbsz pair (%d, %d): %s" % (r, s, exc)) from None
        if not primes:
            raise ValueError("kbsz needs two distinct primes, got (%d, %d)" % (r, s))
    _check_reach(sample_size, 1)  # the cap on N, whatever the checkpoints
    points = pow2_checkpoints(sample_size) if checkpoints is None else _validate_checkpoints(checkpoints)
    _check_reach(points[-1], span, kbsz)
    if points[-1] > sample_size:
        raise ValueError("checkpoint %d beyond sample size %d" % (points[-1], sample_size))
    return points, kbsz


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: a stream, an observable, a weight, and the checkpoint grid.

    kbsz switches the run to the bilinear sums at the given prime pair, in
    which case the weight is ignored.  Construction passes check_run, and
    checkpoints then holds the resolved grid.
    """

    name: str
    stream: SymbolStream = field(repr=False)
    observable: Observable = field(repr=False)
    sample_size: int
    weight: WeightTable | None = None
    checkpoints: tuple | None = None
    kbsz: tuple | None = None

    def __post_init__(self):
        points, kbsz = check_run(self.sample_size, self.checkpoints, self.kbsz, self.observable.span)
        object.__setattr__(self, "checkpoints", points)
        object.__setattr__(self, "kbsz", kbsz)


def run_config(config: ExperimentConfig) -> ConvergenceReport:
    if config.kbsz is not None:
        return kbsz_series(config.stream, config.observable, *config.kbsz, config.checkpoints)
    return sarnak_series(config.stream, config.observable, config.weight, config.checkpoints)


def _format_number(v: float) -> str:
    return format(v + 0.0, ".12g")  # + 0.0 folds -0.0 into 0


_CSV_ROWS = 1 << 16  # rows formatted as str objects at once; only their encoded bytes outlive the piece


def csv_bytes(header: str, rows) -> bytes:
    """CSV lines of rows (an integer, then numbers; every row as wide), under the header line.

    A piece of rows is one % template, "%d" and then ",%.12g" per number on
    each line, over the piece's values, each number taken as v + 0.0: the
    bytes of _format_number, with no call per value.
    """
    rows = iter(rows)
    pieces = [header.encode("ascii") + b"\n"]
    for piece in iter(lambda: list(itertools.islice(rows, _CSV_ROWS)), []):
        width = len(piece[0])
        values = list(itertools.chain.from_iterable(piece))
        for column in range(1, width):
            values[column::width] = [v + 0.0 for v in values[column::width]]
        pieces.append((("%d" + ",%.12g" * (width - 1) + "\n") * len(piece) % tuple(values)).encode("ascii"))
    return b"".join(pieces)


def report_csv(report: ConvergenceReport) -> bytes:
    return csv_bytes("N,real,imag", report.rows())


def report_json(report: ConvergenceReport) -> bytes:
    payload = {
        "metadata": {
            "system": report.system,
            "observable": report.observable,
            "weight": report.weight,
            "r": report.primes[0] if report.primes else None,
            "s": report.primes[1] if report.primes else None,
        },
        "rows": [{"N": m, "real": re, "imag": im} for m, re, im in report.rows()],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


# The report writer of each format; a report file is named NAME.FORMAT.
REPORTS = {"csv": report_csv, "json": report_json}


def check_formats(formats) -> tuple:
    """The formats as a tuple, refused with a ValueError if one has no writer or is repeated."""
    formats = tuple(formats)
    for i, fmt in enumerate(formats):
        if fmt not in REPORTS:
            raise ValueError("unknown format %r" % fmt)
        if fmt in formats[:i]:
            raise ValueError("format %r is given twice" % fmt)
    return formats


def run_experiment(config: ExperimentConfig, out_dir, formats=("csv", "json")):
    """Run one config and write its report files.

    Returns (report, list of paths).  An unknown or repeated format is
    refused before anything runs.  Identical configs produce byte identical
    files on every rerun.
    """
    formats = check_formats(formats)
    return _write_reports(run_config(config), config.name, out_dir, formats)


def _write_reports(report: ConvergenceReport, name: str, out_dir, formats) -> tuple:
    """(report, paths) after writing the report as NAME.FORMAT in out_dir for each format."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for fmt in formats:
        path = out_dir / ("%s.%s" % (name, fmt))
        path.write_bytes(REPORTS[fmt](report))
        paths.append(path)
    return report, paths
