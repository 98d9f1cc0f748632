"""Generalized Morse sequences over finite groups.

A spec is a sequence of blocks b^t over a group G with b^t[0] = e and
|b^t| >= 2; only finitely many distinct blocks occur because the list is a
finite head followed by one repeated tail block.  The sequence is the
coordinatewise limit of the partial products

    c_t = b^0 x b^1 x ... x b^{t-1},   (B x C)[j |B| + i] = B[i] C[j],

so c_t is a prefix of c_{t+1} and of the limit x.  The hat sequence
x-hat[n] = x[n+1] x[n]^{-1} is Toeplitz: writing n_t = |c_t|, stage t
determines x-hat on every residue mod n_t except n_t - 1, and the values on
the determined residues form the stage word c-hat_t = hat(c_t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permgrp import FiniteGroup, cyclic_group
from .streams import INT64_MAX, DigitReader, SymbolStream


@dataclass(frozen=True)
class MorseSpec:
    """Head blocks followed by an eventually repeated tail block."""

    group: FiniteGroup
    head: tuple
    tail: tuple

    def __post_init__(self):
        head = tuple(tuple(int(a) for a in block) for block in self.head)
        tail = tuple(int(a) for a in self.tail)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)
        for block in head + (tail,):
            if len(block) < 2:
                raise ValueError("blocks need length at least 2, got %r" % (block,))
            if block[0] != 0:
                raise ValueError("blocks must start at the identity, got %r" % (block,))
            for a in block:
                if not 0 <= a < self.group.order:
                    raise ValueError("block entry %d outside group of order %d" % (a, self.group.order))

    def block(self, t: int) -> tuple:
        if t < 0:
            raise ValueError("block index must be nonnegative, got %d" % t)
        return self.head[t] if t < len(self.head) else self.tail

    def lam(self, t: int) -> int:
        return len(self.block(t))

    def n(self, t: int) -> int:
        """Length n_t of the partial product c_t."""
        out = 1
        for j in range(t):
            out *= self.lam(j)
        return out

    @property
    def is_degenerate(self) -> bool:
        """True when every block is constant e (the sequence is constant)."""
        blocks = self.head + (self.tail,)
        return all(all(a == 0 for a in block) for block in blocks)


def block_product(group: FiniteGroup, left, right) -> tuple:
    """(B x C)[j |B| + i] = B[i] C[j]."""
    out = []
    for c in right:
        for b in left:
            out.append(group.mul(int(b), int(c)))
    return tuple(out)


def morse_prefix(spec: MorseSpec, count: int) -> np.ndarray:
    """First count symbols of the limit sequence (vectorized partial products)."""
    if count < 0:
        raise ValueError("count must be nonnegative, got %d" % count)
    word = np.zeros(1, dtype=np.int32)
    t = 0
    while len(word) < count:
        word = _times_block(spec.group.table, word, spec.block(t))
        t += 1
    return word[:count]


def _times_block(table: np.ndarray, word: np.ndarray, block) -> np.ndarray:
    """word x block: segment j is the word translated by block[j]."""
    return table[word[:, None], np.asarray(block, dtype=np.int32)].T.reshape(-1).astype(np.int32)


def morse_stream(spec: MorseSpec, name: str = "morse") -> SymbolStream:
    """The limit sequence as a stream, read through DigitReader.

    Block b is the step T[g, i] = b[i] g: by associativity x = D_0 x D_1 x
    ... for any grouping of the blocks into products, so x[q R_0 + i] =
    D_0[i] y[q] with y the sequence of the blocks after the first level.
    """
    steps = [spec.group.table[list(block)].T for block in spec.head]
    return SymbolStream(
        DigitReader(0, steps, spec.group.table[list(spec.tail)].T),
        name=name,
        alphabet_size=spec.group.order,
        letters=spec.group.element_names,
    )


def hat_word(group: FiniteGroup, word) -> np.ndarray:
    """hat(y)[n] = y[n+1] y[n]^{-1}; length drops by one."""
    arr = np.asarray(word, dtype=np.int32)
    if len(arr) < 1:
        raise ValueError("hat needs a nonempty word")
    return group.table[arr[1:], group.inverse[arr[:-1]]].astype(np.int32)


def hat_stream(group: FiniteGroup, stream: SymbolStream, name: str | None = None) -> SymbolStream:
    """hat(y) as a stream: hat(y)[n] reads y at n and n + 1, through block() or at()."""

    def read(key):
        reach = key.stop if isinstance(key, slice) else int(key.max()) + 1
        if reach > INT64_MAX:
            raise ValueError("hat at position %d reads its source at %d, beyond the int64 limit %d"
                             % (reach - 1, reach, INT64_MAX))
        if isinstance(key, slice):
            run = hat_word(group, stream.block(key.start, key.stop - key.start + 1))
            return np.ascontiguousarray(run[:: key.step or 1])
        return group.table[stream.at(key + 1), group.inverse[stream.at(key)]]

    return SymbolStream(
        read,
        name=name or ("hat_" + stream.name),
        alphabet_size=group.order,
        letters=group.element_names,
    )


@dataclass(frozen=True)
class ToeplitzStage:
    """Stage t of the hat sequence: values on residues 0..n-2 mod n."""

    t: int
    n: int
    values: tuple  # c-hat_t, length n - 1

    @property
    def hole_residue(self) -> int:
        return self.n - 1


def toeplitz_stage(spec: MorseSpec, t: int) -> ToeplitzStage:
    if t < 1:
        raise ValueError("stages are indexed from 1, got %d" % t)
    n = spec.n(t)
    values = hat_word(spec.group, morse_prefix(spec, n))
    return ToeplitzStage(t, n, tuple(int(v) for v in values))


def cocycle_values(spec: MorseSpec, t: int) -> tuple:
    """The stage word c-hat_t (values of the hat cocycle read at stage t)."""
    return toeplitz_stage(spec, t).values


def blocks_from_cocycle(group: FiniteGroup, stages, lambdas):
    """Reconstruct blocks b^0..b^{T-1} from stage words c-hat_1..c-hat_T.

    Stage t must have length n_t - 1 where n_t = lambdas[0] * ... *
    lambdas[t-1], and consecutive stages must agree on the residues the
    earlier stage determines; the first mismatch is reported.  The block
    entries come out of the telescoping product

        b^t[i] = prod_{j=i..1} (c-hat_{t+1}[j n_t - 1] * c_t[n_t - 1]),

    taken with later factors multiplied on the left.
    """
    stages = [tuple(int(v) for v in stage) for stage in stages]
    lambdas = [int(v) for v in lambdas]
    if len(stages) != len(lambdas):
        raise ValueError("need one stage per block, got %d stages for %d lambdas" % (len(stages), len(lambdas)))
    if any(lam < 2 for lam in lambdas):
        raise ValueError("lambdas must be at least 2, got %s" % (lambdas,))
    n = 1
    sizes = [1]
    for lam in lambdas:
        n *= lam
        sizes.append(n)
    for t, stage in enumerate(stages, start=1):
        if len(stage) != sizes[t] - 1:
            raise ValueError("stage %d has %d values, expected %d" % (t, len(stage), sizes[t] - 1))
        for v in stage:
            if not 0 <= v < group.order:
                raise ValueError("stage %d entry %d outside group of order %d" % (t, v, group.order))
    for t in range(1, len(stages)):
        prev, cur, n_t = stages[t - 1], stages[t], sizes[t]
        for pos in range(len(cur)):
            if pos % n_t != n_t - 1 and cur[pos] != prev[pos % n_t]:
                raise ValueError(
                    "stage %d contradicts stage %d at position %d (%d vs %d)"
                    % (t + 1, t, pos, cur[pos], prev[pos % n_t])
                )

    blocks = []
    last = 0  # c_t[n_t - 1], starting from c_0 = (e)
    for t, lam in enumerate(lambdas):
        n_t = sizes[t]
        stage = stages[t]  # c-hat_{t+1}
        block = [0]
        acc = 0
        for j in range(1, lam):
            step = group.mul(stage[j * n_t - 1], last)
            acc = group.mul(step, acc)  # descending product, new factor on the left
            block.append(acc)
        blocks.append(tuple(block))
        last = group.mul(last, block[-1])  # c_{t+1} ends in c_t[n_t-1] b^t[lam-1]
    return blocks


def kakutani_spec(head_choices, tail_choice: int = 1) -> MorseSpec:
    """Binary spec from bits: choice 0 gives block (0,0), choice 1 gives (0,1)."""
    blocks = {0: (0, 0), 1: (0, 1)}
    try:
        head = tuple(blocks[int(c)] for c in head_choices)
        tail = blocks[int(tail_choice)]
    except KeyError as exc:
        raise ValueError("choices must be bits, got %s" % exc) from None
    return MorseSpec(cyclic_group(2), head, tail)


def toeplitz_check(source, positions, lambdas, max_level: int = 12, repeats: int = 8):
    """Least verified period level per position.

    For each position p the scan looks for the least t <= max_level such that
    the source is constant on p + n_t N within the horizon
    max(positions) + repeats * n_T.  Returns a list of (position, level or
    None).  Finite words shorter than the horizon are rejected.
    """
    positions = [int(p) for p in positions]
    if not positions:
        return []
    if min(positions) < 0:
        raise ValueError("positions must be nonnegative")
    if isinstance(lambdas, int):
        lambdas = [lambdas]
    lambdas = [int(v) for v in lambdas]
    if not lambdas or any(v < 2 for v in lambdas):
        raise ValueError("lambdas must be at least 2, got %s" % (lambdas,))

    def n_of(t):
        out = 1
        for j in range(t):
            out *= lambdas[min(j, len(lambdas) - 1)]
        return out

    horizon = max(positions) + repeats * n_of(max_level) + 1
    if isinstance(source, SymbolStream):
        word = source.prefix(horizon)
    else:
        word = np.asarray(source, dtype=np.int32)
        if len(word) < horizon:
            raise ValueError("word of length %d is shorter than the horizon %d" % (len(word), horizon))
    results = []
    for p in positions:
        found = None
        for t in range(1, max_level + 1):
            step = n_of(t)
            if np.all(word[p::step][: (horizon - p + step - 1) // step] == word[p]):
                found = t
                break
        results.append((p, found))
    return results
