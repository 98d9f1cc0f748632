"""Constant-length substitutions, column maps, and group covers.

A substitution theta of length lam on letters 0..r-1 is given by its rows
theta(a).  Column i induces the map sigma_i(a) = theta(a)[i]; when every
column is a bijection the substitution is bijective and the columns generate
a permutation group G on the letters.  The cover block B = (sigma_0, ...,
sigma_{lam-1}) turns theta into a substitution on G whose fixed point factors
onto the base fixed point by evaluating each permutation at the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import morse as _morse
from .permgrp import FiniteGroup, GroupEmbedding, Perm, closure, quotient
from .streams import DigitReader, SymbolStream


@dataclass(frozen=True)
class Substitution:
    rows: tuple
    letters: tuple
    seed: int = 0

    def __post_init__(self):
        rows = tuple(tuple(int(a) for a in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        letters = tuple(str(s) for s in self.letters)
        object.__setattr__(self, "letters", letters)
        r = len(rows)
        if r == 0 or len(letters) != r:
            raise ValueError("need one row per letter")
        if len(set(letters)) != r:
            raise ValueError("letters must be distinct")
        lengths = {len(row) for row in rows}
        if len(lengths) != 1:
            raise ValueError("rows must share one length, got %s" % sorted(lengths))
        lam = lengths.pop()
        if lam < 2:
            raise ValueError("substitution length must be at least 2")
        for a, row in enumerate(rows):
            for b in row:
                if not 0 <= b < r:
                    raise ValueError("row %s contains letter %d outside 0..%d" % (letters[a], b, r - 1))
        if not 0 <= self.seed < r:
            raise ValueError("seed %d outside 0..%d" % (self.seed, r - 1))

    @classmethod
    def from_words(cls, words: dict, seed=None) -> "Substitution":
        letters = tuple(words)
        if any(len(s) != 1 for s in letters):
            raise ValueError("letters must be single characters")
        index = {s: a for a, s in enumerate(letters)}
        rows = []
        for s in letters:
            try:
                rows.append(tuple(index[c] for c in words[s]))
            except KeyError as exc:
                raise ValueError("row for %r uses unknown letter %s" % (s, exc)) from None
        seed_idx = 0 if seed is None else index[seed]
        return cls(rows, letters, seed_idx)

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def lam(self) -> int:
        return len(self.rows[0])

    def rows_array(self) -> np.ndarray:
        arr = np.array(self.rows, dtype=np.int32)
        arr.flags.writeable = False
        return arr

    def apply(self, word) -> np.ndarray:
        """One substitution step on a word of letter indices."""
        return self.rows_array()[np.asarray(word, dtype=np.int32)].reshape(-1)

    def incidence(self) -> np.ndarray:
        """count[a, b] = occurrences of letter b in theta(a)."""
        counts = np.zeros((self.r, self.r), dtype=np.int64)
        for a, row in enumerate(self.rows):
            for b in row:
                counts[a, b] += 1
        return counts

    def word_string(self, word) -> str:
        return "".join(self.letters[int(a)] for a in word)


@dataclass(frozen=True)
class SubstitutionReport:
    primitive: bool
    primitivity_power: int | None
    power_for_seed: int | None
    power_for_identity_column: int | None


def analyze(sub: Substitution) -> SubstitutionReport:
    """Primitivity (matrix power witness) and seed/column power diagnostics.

    primitivity_power is the least n with all entries of the incidence matrix
    power positive (None past r^2).  power_for_seed is the least n >= 1 with
    theta^n(seed) starting in seed, which depends only on the orbit of the
    seed under sigma_0.  power_for_identity_column is the order of sigma_0
    when the substitution is bijective.
    """
    positive = sub.incidence() > 0
    acc = positive.copy()
    primitivity_power = None
    for n in range(1, sub.r * sub.r + 1):
        if acc.all():
            primitivity_power = n
            break
        acc = (acc @ positive) > 0

    first_column = [row[0] for row in sub.rows]
    power_for_seed = None
    a = sub.seed
    for n in range(1, sub.r + 1):
        a = first_column[a]
        if a == sub.seed:
            power_for_seed = n
            break

    cols = column_maps(sub)
    power_for_identity_column = cols.perms[0].order() if cols.bijective else None

    return SubstitutionReport(
        primitive=primitivity_power is not None,
        primitivity_power=primitivity_power,
        power_for_seed=power_for_seed,
        power_for_identity_column=power_for_identity_column,
    )


def _check_fixed_point(sub: Substitution) -> None:
    if sub.rows[sub.seed][0] != sub.seed:
        report = analyze(sub)
        hint = (
            " (theta^%d would work; replace the substitution by that power)" % report.power_for_seed
            if report.power_for_seed
            else ""
        )
        raise ValueError(
            "theta(%s) does not start with %s, no one-sided fixed point%s"
            % (sub.letters[sub.seed], sub.letters[sub.seed], hint)
        )


def fixed_point(sub: Substitution, count: int) -> np.ndarray:
    """Prefix of the one-sided fixed point starting at the seed."""
    if count < 0:
        raise ValueError("count must be nonnegative, got %d" % count)
    _check_fixed_point(sub)
    word = np.array([sub.seed], dtype=np.int32)
    rows = sub.rows_array()
    while len(word) < count:
        word = rows[word].reshape(-1)
    return word[:count]


def fixed_point_stream(sub: Substitution, name: str | None = None) -> SymbolStream:
    """The fixed point as a stream: theta's rows are every step, and DigitReader's levels are theta^k."""
    reader = DigitReader(sub.seed, (), sub.rows_array())

    def read(key):
        _check_fixed_point(sub)
        return reader(key)

    return SymbolStream(read, name=name or "fixed_point", alphabet_size=sub.r, letters=sub.letters)


@dataclass(frozen=True)
class ColumnMaps:
    maps: tuple  # maps[i][a] = theta(a)[i]
    bijective: bool
    perms: tuple | None  # Perm objects when bijective


def column_maps(sub: Substitution) -> ColumnMaps:
    maps = tuple(tuple(row[i] for row in sub.rows) for i in range(sub.lam))
    bijective = all(len(set(col)) == sub.r for col in maps)
    perms = tuple(Perm(col) for col in maps) if bijective else None
    return ColumnMaps(maps, bijective, perms)


@dataclass(frozen=True)
class GroupCover:
    """Bijective substitution lifted to the group generated by its columns."""

    base: Substitution
    group: FiniteGroup
    embedding: GroupEmbedding
    block: tuple  # group element indices of (sigma_0, ..., sigma_{lam-1})

    def morse_spec(self) -> "_morse.MorseSpec":
        return _morse.MorseSpec(self.group, (), self.block)

    def stream(self) -> SymbolStream:
        return _morse.morse_stream(self.morse_spec(), name=self.base_name() + "_cover")

    def base_name(self) -> str:
        return "".join(self.base.letters)


def group_cover(sub: Substitution) -> GroupCover:
    """Lift a bijective substitution with sigma_0 = id to its column group.

    The degenerate case where every column is the identity is rejected (the
    lifted substitution on a trivial group is constant, hence not primitive).
    """
    cols = column_maps(sub)
    if not cols.bijective:
        raise ValueError("substitution is not bijective, columns are not all permutations")
    if not cols.perms[0].is_identity:
        report = analyze(sub)
        hint = (
            " (sigma_0 has order %d; replace theta by that power first)" % report.power_for_identity_column
            if report.power_for_identity_column
            else ""
        )
        raise ValueError("column 0 must be the identity%s" % hint)
    group, embedding = closure(cols.perms, degree=sub.r)
    if group.order == 1:
        raise ValueError("all columns are the identity, the cover is constant and not primitive")
    # name the elements in terms of the base letters
    group.element_names = tuple(p.cycle_string(sub.letters) for p in embedding.images)
    index = {perm: i for i, perm in enumerate(embedding.images)}
    block = tuple(index[p] for p in cols.perms)
    return GroupCover(sub, group, embedding, block)


def factor_map(cover: GroupCover, word, seed: int | None = None) -> np.ndarray:
    """Evaluate each group element at the seed letter, sending G-words to base words."""
    seed = cover.base.seed if seed is None else seed
    if not 0 <= seed < cover.base.r:
        raise ValueError("seed %d outside 0..%d" % (seed, cover.base.r - 1))
    lookup = np.array([p(seed) for p in cover.embedding.images], dtype=np.int32)
    return lookup[np.asarray(word, dtype=np.int32)]


def factor_stream(cover: GroupCover, stream: SymbolStream, seed: int | None = None) -> SymbolStream:
    """The base word of a cover stream: each read maps the cover's symbols at the same key."""

    def read(key):
        if isinstance(key, slice):
            run = range(key.start, key.stop, key.step or 1)
            return factor_map(cover, stream.block(run.start, len(run), run.step), seed)
        return factor_map(cover, stream.at(key), seed)

    return SymbolStream(
        read,
        name=stream.name + "_base",
        alphabet_size=cover.base.r,
        letters=cover.base.letters,
    )


def skeleton_index(lam: int, t: int, k: int) -> int:
    """Anchor position i_t = -(k mod lam^t) of the order-t skeleton at time k.

    lam^t > k once t reaches k's bit length, so no larger power is formed.
    """
    if lam < 2:
        raise ValueError("lam must be at least 2, got %d" % lam)
    if t < 0 or k < 0:
        raise ValueError("t and k must be nonnegative, got t=%d k=%d" % (t, k))
    return -(k % lam ** min(t, k.bit_length()))


@dataclass(frozen=True)
class LanguageScan:
    blocks: frozenset
    k: int
    horizon: int

    @property
    def count(self) -> int:
        return len(self.blocks)


def language(sub: Substitution, k: int, horizon: int | None = None) -> LanguageScan:
    """k-blocks of the fixed point seen within a prefix horizon.

    The default horizon is a heuristic; the scan reports it so callers can
    double and compare when completeness matters.
    """
    if k < 1:
        raise ValueError("block length must be positive, got %d" % k)
    if horizon is None:
        t0 = 1
        while sub.lam**t0 < k:
            t0 += 1
        horizon = max(sub.lam**t0 + k, sub.r * sub.lam ** (t0 + 2), 4096)
    if horizon < k:
        raise ValueError("horizon %d shorter than block length %d" % (horizon, k))
    word = fixed_point(sub, horizon)
    return LanguageScan(_distinct_blocks(word, k), k, horizon)


def _distinct_blocks(word: np.ndarray, k: int) -> frozenset:
    """The k-blocks of a word at least k long."""
    windows = np.lib.stride_tricks.sliding_window_view(word, k)
    return frozenset(map(tuple, np.unique(windows, axis=0).tolist()))


def quotient_substitution(cover, normal):
    """Push a group substitution forward along G -> G/H.

    Accepts a GroupCover or a (FiniteGroup, block) pair.  Returns
    (quotient group, projected block, projection tuple).
    """
    if isinstance(cover, GroupCover):
        group, block = cover.group, cover.block
    else:
        group, block = cover
    qgroup, proj = quotient(group, normal)
    qblock = tuple(proj[b] for b in block)
    return qgroup, qblock, proj


def letter_map_image(sub: Substitution, eta: Perm, count: int):
    """Apply a column-commuting letter permutation to the fixed point.

    Returns (image word, verdict): the verdict checks that every block of the
    image of length up to min(8, count) stays inside the scanned language.
    Raises ValueError when eta fails to commute with some column.
    """
    if eta.degree != sub.r:
        raise ValueError("permutation degree %d does not match alphabet size %d" % (eta.degree, sub.r))
    cols = column_maps(sub)
    for i, col in enumerate(cols.maps):
        for a in range(sub.r):
            if eta(col[a]) != col[eta(a)]:
                raise ValueError("eta does not commute with column %d" % i)
    image = np.array([eta(int(a)) for a in fixed_point(sub, count)], dtype=np.int32)
    verdict = True
    for k in range(1, min(8, count) + 1):
        allowed = language(sub, k).blocks
        if not _distinct_blocks(image, k) <= allowed:
            verdict = False
            break
    return image, verdict
