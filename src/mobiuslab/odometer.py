"""Odometers, Morse cocycles over them, and Veech sequences.

The odometer X = prod_t Z/lambda_t Z adds one with carry to the right.  The
integers sit inside X (n >= 0 with finitely many nonzero digits, n < 0 with
an eventually all-top digit tail), and points here are exactly that copy of
Z: a point is its integer value, digits are recovered with floor division,
and the all-top point -theta is -1.  These are the only points experiments
evaluate and the only ones where the maps below can fail pointwise.

tower_index(x, t) = sum_{j<t} x_j n_j is the level of x in the order-t tower,
so it equals x mod n_t on integer points.  A Morse spec turns the odometer
into a cocycle: psi(x) is read from the first stage word c-hat_t whose tower
index lands on a determined residue (index <= n_t - 2); the all-top point is
the unique integer point where no stage answers.

The Veech coordinate tau(x) is the least t >= 1 with x mod n_t != n_t - 1,
undefined exactly at -theta.  Given a map Psi from stage indices into a
finite group K, the Veech sequence along the orbit of a point is
n -> Psi(tau(point + n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedPointError
from .morse import MorseSpec, hat_stream, morse_stream
from .permgrp import FiniteGroup, cyclic_group
from .streams import INT64_MAX, SymbolStream


@dataclass(frozen=True)
class OdometerSpec:
    """Digit bases lambda_t >= 2, a finite head then one repeated value."""

    head: tuple = ()
    tail: int = 2

    def __post_init__(self):
        head = tuple(int(v) for v in self.head)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", int(self.tail))
        if any(v < 2 for v in head) or self.tail < 2:
            raise ValueError("digit bases must be at least 2")

    def lam(self, t: int) -> int:
        if t < 0:
            raise ValueError("digit index must be nonnegative, got %d" % t)
        return self.head[t] if t < len(self.head) else self.tail

    def n(self, t: int) -> int:
        return math.prod(self.lam(j) for j in range(t))

    def point(self, value: int) -> "OdometerPoint":
        return OdometerPoint(self, int(value))

    def zero(self) -> "OdometerPoint":
        return self.point(0)

    def all_top(self) -> "OdometerPoint":
        return self.point(-1)

    def from_digits(self, digits, top_tail: bool = False) -> "OdometerPoint":
        """Point with the given leading digits and a constant 0 or top tail."""
        digits = [int(d) for d in digits]
        for t, d in enumerate(digits):
            if not 0 <= d < self.lam(t):
                raise ValueError("digit %d out of range 0..%d" % (d, self.lam(t) - 1))
        value = 0
        for t in reversed(range(len(digits))):
            value = value * self.lam(t) + digits[t]
        if top_tail:
            value -= self.n(len(digits))
        return self.point(value)


@dataclass(frozen=True)
class OdometerPoint:
    """An integer point of the odometer (-1 is the all-top point -theta)."""

    spec: OdometerSpec
    value: int

    def digit(self, t: int) -> int:
        return (self.value // self.spec.n(t)) % self.spec.lam(t)

    def digits(self, count: int) -> tuple:
        """x_0, ..., x_{count-1}, peeled off one stage at a time."""
        out, value = [], self.value
        for t in range(count):
            value, d = divmod(value, self.spec.lam(t))
            out.append(d)
        return tuple(out)

    @property
    def is_all_top(self) -> bool:
        return self.value == -1


def translate(point: OdometerPoint, steps: int = 1) -> OdometerPoint:
    """Add an integer number of odometer steps (digitwise carry to the right)."""
    return OdometerPoint(point.spec, point.value + int(steps))


def tower_index(point: OdometerPoint, t: int) -> int:
    """Level of the point in the order-t tower, sum_{j<t} x_j n_j."""
    if t < 0:
        raise ValueError("tower order must be nonnegative, got %d" % t)
    return point.value % point.spec.n(t)


def morse_cocycle_eval(mspec: MorseSpec, point: OdometerPoint) -> int:
    """Value of the Morse cocycle at an odometer point.

    Reads the hat of the Morse sequence at the first tower index that is a
    determined residue.  The all-top point never lands on one and raises
    UndefinedPointError; a residue past the int64 reach raises ValueError.
    """
    if point.is_all_top:
        raise UndefinedPointError("the cocycle is undefined at the all-top point -theta")
    t, n_t = _trailing_top_digits(mspec, point.value)
    i = point.value % (n_t * mspec.lam(t))
    return int(hat_stream(mspec.group, morse_stream(mspec)).at([i])[0])


def veech_tau(point: OdometerPoint) -> int:
    """Least t >= 1 with x mod n_t != n_t - 1; undefined at -theta."""
    if point.is_all_top:
        raise UndefinedPointError("tau is undefined at -theta")
    return _trailing_top_digits(point.spec, point.value)[0] + 1


def _trailing_top_digits(spec, value: int) -> tuple:
    """(t, n_t) for the t trailing top digits of an integer other than -1, peeled off one at a time."""
    t, n_t = 0, 1
    while value % spec.lam(t) == spec.lam(t) - 1:
        value, n_t, t = value // spec.lam(t), n_t * spec.lam(t), t + 1
    return t, n_t


@dataclass(frozen=True)
class VeechSpec:
    """Odometer bases plus a K-valued stage map Psi (head then repeated tail)."""

    odometer: OdometerSpec
    group: FiniteGroup
    psi_head: tuple = ()
    psi_tail: tuple = (0,)

    def __post_init__(self):
        head = tuple(int(v) for v in self.psi_head)
        tail = tuple(int(v) for v in self.psi_tail)
        object.__setattr__(self, "psi_head", head)
        object.__setattr__(self, "psi_tail", tail)
        if not tail:
            raise ValueError("psi tail must be nonempty")
        for v in head + tail:
            if not 0 <= v < self.group.order:
                raise ValueError("psi value %d outside group of order %d" % (v, self.group.order))

    def psi(self, t: int) -> int:
        """Psi(t) for stage indices t >= 1."""
        if t < 1:
            raise ValueError("stage indices start at 1, got %d" % t)
        i = t - 1
        if i < len(self.psi_head):
            return self.psi_head[i]
        return self.psi_tail[(i - len(self.psi_head)) % len(self.psi_tail)]


def _tau_at(spec: OdometerSpec, values: np.ndarray) -> np.ndarray:
    """tau(v), 1 plus the number of trailing top digits of v, for an int64 array.

    The points whose digits are all top so far are kept and divided by
    lambda_t one stage at a time, so no n_t is formed.  Only -1 is top
    everywhere; any other point leaves within 64 stages.
    """
    if np.any(values == -1):
        raise UndefinedPointError("orbit passes through -theta where tau is undefined")
    out = np.ones(len(values), dtype=np.uint8)  # tau <= 64 for points in int64
    idx, q = np.arange(len(values)), values
    t = 0
    while len(idx):
        lam = spec.lam(t)
        if lam > INT64_MAX:  # only q = lam - 1 can be top, and its quotient is 0
            out[idx[q == lam - 1]] += 1
            break
        top = q % lam == lam - 1
        idx, q = idx[top], q[top] // lam
        out[idx] += 1
        t += 1
    return out


def _psi_run(vspec: VeechSpec, start: int, count: int, step: int = 1) -> np.ndarray:
    """Psi(tau(v)) for v = start + step i, i = 0..count-1, one arithmetic progression per stage.

    v = -1 mod n_{t+1} implies v = -1 mod n_t, so tau(v) - 1 is the last t
    with v = -1 mod n_t, and on the run those v sit at the i with i step = c
    mod n_t, c = -1 - start: one residue mod n_t / g if g = gcd(step, n_t)
    divides c, else none.  The run starts as Psi(1) and each stage t >= 1
    writes Psi(t + 1) on its progression, so later stages overwrite earlier
    ones and leave Psi(tau).  The stages stop at the first that keeps no
    point, as each keeps a subset of the last; only -1 is -1 mod every n_t.
    """
    if start <= -1 <= start + step * (count - 1) and (-1 - start) % step == 0:
        raise UndefinedPointError("orbit passes through -theta where tau is undefined")
    out = np.full(count, vspec.psi(1), dtype=np.int32)
    t, n_t, c = 1, vspec.odometer.lam(0), -1 - start
    while True:
        g = math.gcd(step, n_t)
        m = n_t // g
        first = c // g * pow(step // g, -1, m) % m if step > g else c // g % m
        if c % g or first >= count:  # no kept point, or none before count
            return out
        out[first::m] = vspec.psi(t + 1)
        n_t *= vspec.odometer.lam(t)
        t += 1


def veech_stream(vspec: VeechSpec, start: int = 0, name: str = "veech") -> SymbolStream:
    """The sequence n -> Psi(tau(start + n)) along the orbit of a point.

    A run, stepped or not, writes each stage's Psi on its kept points
    v = -1 mod n_t (_psi_run); positions count the trailing top digits of
    start + position (_tau_at) and take Psi of the count.
    """

    def read(key):
        if isinstance(key, slice):
            return _psi_run(vspec, start + key.start, len(range(key.start, key.stop, key.step or 1)), key.step or 1)
        taus = _tau_at(vspec.odometer, start + key)
        return np.array([0] + [vspec.psi(t) for t in range(1, int(taus.max(initial=1)) + 1)], dtype=np.int32).take(taus)

    return SymbolStream(read, name=name, alphabet_size=vspec.group.order, letters=vspec.group.element_names)


@dataclass(frozen=True)
class VeechConditionReport:
    """Finite-horizon semidecisions for the three Veech conditions.

    Each field is evidence within the horizon, not a proof: (i) Psi still
    takes two values in the tail half, so no limit is apparent; (ii) the
    observed values, and separately the observed pairwise differences,
    generate the whole group; (iii) every initial block of length up to
    horizon/4 recurs at least twice.
    """

    horizon: int
    no_limit: bool
    values_generate: bool
    differences_generate: bool
    blocks_recur: bool

    @property
    def all_hold(self) -> bool:
        return self.no_limit and self.values_generate and self.differences_generate and self.blocks_recur


def veech_conditions(vspec: VeechSpec, horizon: int) -> VeechConditionReport:
    if horizon < 8:
        raise ValueError("horizon must be at least 8, got %d" % horizon)
    psi = [vspec.psi(t) for t in range(1, horizon + 1)]
    group = vspec.group

    tail = psi[(horizon - 1) // 2 :]
    no_limit = len(set(tail)) >= 2

    values_generate = group.subgroup_closure(set(psi)) == frozenset(range(group.order))
    diffs = {group.mul(a, group.inv(b)) for a in set(psi) for b in set(psi)}
    differences_generate = group.subgroup_closure(diffs) == frozenset(range(group.order))

    blocks_recur = True
    for length in range(1, horizon // 4 + 1):
        block = psi[:length]
        hits = sum(1 for j in range(1, horizon - length + 1) if psi[j : j + length] == block)
        if hits < 2:
            blocks_recur = False
            break

    return VeechConditionReport(horizon, no_limit, values_generate, differences_generate, blocks_recur)


@dataclass(frozen=True)
class ExtensionStage:
    """Stage t of the partial cocycle: values on levels of D^t, -1 undefined."""

    t: int
    values: tuple
    newly_filled: tuple  # (level, level) filled by the passage into this stage

    @property
    def undefined_levels(self) -> tuple:
        return tuple(i for i, v in enumerate(self.values) if v < 0)

    @property
    def defined_levels(self) -> tuple:
        return tuple(i for i, v in enumerate(self.values) if v >= 0)


def rs_extension_stages(choices, max_level: int, tail_choice: int = 0):
    """Stagewise extension of a binary cocycle over the dyadic odometer.

    Stage 1 defines nothing (both levels are the exceptional ones).  The
    passage into stage t >= 2 copies stage t-1 onto both halves and fills the
    two levels that stop being exceptional, 2^(t-2) - 1 and
    2^(t-1) + 2^(t-2) - 1, with (0, 1) for choice bit 0 and (1, 0) for choice
    bit 1; the exceptional levels of stage t, 2^(t-1) - 1 and 2^t - 1, stay
    undefined.  Returns (stages, stream) where the stream evaluates the
    completed cocycle along the orbit of 0, consuming choices[s-1] at passage
    s and tail_choice past the list.  Every integer lands on a defined level
    at some stage; only the limit of the exceptional levels (-theta) never
    does.  Level n is filled at passage k + 1, k the number of trailing ones
    of n, with choice bit k + 1 xor bit k + 1 of n, and the stream reads each
    position by that rule.
    """
    choices = [int(c) for c in choices]
    if any(c not in (0, 1) for c in choices) or int(tail_choice) not in (0, 1):
        raise ValueError("choice bits must be 0 or 1")
    if max_level < 1:
        raise ValueError("max_level must be at least 1, got %d" % max_level)
    tail_choice = int(tail_choice)

    def choice(s):
        return choices[s - 1] if s - 1 < len(choices) else tail_choice

    def tables(levels):
        """(t, table, newly filled levels) for t = 1..levels, one doubling per stage."""
        table = -np.ones(2, dtype=np.int8)
        yield 1, table, ()
        for t in range(2, levels + 1):
            table = np.tile(table, 2)
            lo = (1 << (t - 2)) - 1
            hi = (1 << (t - 1)) + (1 << (t - 2)) - 1
            table[lo], table[hi] = (0, 1) if choice(t - 1) == 0 else (1, 0)
            yield t, table, (lo, hi)

    stages = [ExtensionStage(t, tuple(int(v) for v in table), filled) for t, table, filled in tables(max_level)]

    bits = np.array([choice(s) for s in range(1, 65)], dtype=np.int64)

    def read(n):
        if isinstance(n, slice):
            n = n.start + (n.step or 1) * np.arange(len(range(n.start, n.stop, n.step or 1)), dtype=np.int64)
        low = ~n & (n + 1)  # 2^k for k trailing ones; at n = 2^63 - 1 it wraps to -2^63, k still 63
        k = np.frexp(low)[1] - 1  # exact: low is a power of two
        return bits[k] ^ ((n & (low << 1)) != 0)

    stream = SymbolStream(read, name="rs_extension", alphabet_size=2)
    return stages, stream
