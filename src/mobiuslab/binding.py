"""The rules that turn spec declarations into systems, observables and experiments.

specfile's validator resolves the names a document uses and then binds each
system declaration once through these functions, and builds each
experiment's config; a BindingError, ValueError or CapacityError they raise
becomes a located diagnostic.  The document keeps the bound systems with
their streams, and the CLI reads them from there.

Symbols: a key of a table observable, or a character of an indicator block,
names a substitution letter or a symbol index (one base-36 digit, or a
decimal number of two or more digits).  Block and psi words spell group
elements as base-36 digits of their index.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property

from . import morse as _morse
from . import odometer as _odometer
from . import spectral as _spectral
from . import subst as _subst
from .arith import DigitPattern, PatternReader
from .experiment import ExperimentConfig
from .permgrp import CLOSURE_CAP, FiniteGroup, cyclic_group, symmetric_group
from .streams import SymbolStream

BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"


class BindingError(ValueError):
    """A spec document parsed cleanly but a reference or value cannot bind."""


@dataclass(frozen=True)
class BoundSystem:
    """One bound system declaration and its stream.

    definition is the Substitution, MorseSpec, DigitPattern or VeechSpec.
    The stream keeps only its digit tables, never a prefix, so every reader
    of the document shares it.
    """

    name: str
    kind: str  # "substitution" | "morse" | "rs" | "veech"
    definition: object
    alphabet_size: int
    stream: SymbolStream = field(compare=False, repr=False)
    letters: tuple | None = None  # substitution letter names, else None
    group: FiniteGroup | None = None

    @cached_property
    def cover(self) -> "_subst.GroupCover":
        """Group cover of a substitution system, closed on first use."""
        return _subst.group_cover(self.definition)


def build_substitution(decl) -> "_subst.Substitution":
    images = dict(decl.rules)
    index = {c: a for a, c in enumerate(decl.letters)}
    sub = _subst.Substitution([[index[c] for c in images[letter]] for letter in decl.letters], decl.letters)
    seeds = [a for a, row in enumerate(sub.rows) if row[0] == a]
    if not seeds:
        raise BindingError("substitution %r has no letter fixed at position 0, so no one-sided fixed point" % decl.name)
    return dataclasses.replace(sub, seed=seeds[0])


def build_group(expr, systems: dict):
    """(group, cover or None) of a group expression.

    systems maps names to bound systems; a cover-of target must be a bound
    substitution.
    """
    if expr.kind == "Z2":
        return cyclic_group(2), None
    if expr.kind == "Zn":
        if not 2 <= expr.param <= CLOSURE_CAP:  # the table has n^2 entries
            raise BindingError("Zn needs 2 <= n <= %d, got %d" % (CLOSURE_CAP, expr.param))
        return cyclic_group(expr.param), None
    if expr.kind == "Sym":
        return symmetric_group(expr.param)[0], None
    cover = systems[expr.param].cover
    return cover.group, cover


def _symbols(word: str, order: int, what: str) -> tuple:
    """Element indices of a block or psi word over a group of the given order."""
    values = tuple(BASE36.find(c.lower()) for c in word)
    for c, v in zip(word, values):
        if not 0 <= v < order:
            raise BindingError("%s symbol %r is outside the group" % (what, c))
    return values


def bind_system(decl, group: FiniteGroup | None = None, cover=None) -> BoundSystem:
    """Bind a system declaration; morse and veech take their built group."""
    if decl.kind == "substitution":
        sub = build_substitution(decl)
        stream = _subst.fixed_point_stream(sub, name=decl.name)
        return BoundSystem(decl.name, "substitution", sub, sub.r, stream, letters=sub.letters)
    if decl.kind == "rs":
        pattern = DigitPattern(decl.pattern)
        stream = SymbolStream(PatternReader(pattern), name=decl.name, alphabet_size=2)
        return BoundSystem(decl.name, "rs", pattern, 2, stream, group=cyclic_group(2))
    if decl.kind == "morse":
        if cover is not None:
            if decl.blocks or decl.tail:
                raise BindingError("cover-of systems take their block from the cover; drop the blocks clause")
            spec = cover.morse_spec()
        elif not decl.tail:
            raise BindingError('missing blocks clause (blocks [..., repeat "..."])')
        else:
            blocks = tuple(_symbols(b, group.order, "block") for b in decl.blocks)
            spec = _morse.MorseSpec(group, blocks, _symbols(decl.tail, group.order, "block"))
        return BoundSystem(decl.name, "morse", spec, group.order, _morse.morse_stream(spec, name=decl.name), group=group)
    vspec = _odometer.VeechSpec(
        _odometer.OdometerSpec(tail=decl.base),
        group,
        psi_head=_symbols(decl.psi_head, group.order, "psi head"),
        psi_tail=_symbols(decl.psi_tail, group.order, "psi repeat block"),
    )
    return BoundSystem(decl.name, "veech", vspec, group.order, _odometer.veech_stream(vspec, name=decl.name), group=group)


def resolve_symbol(bound: BoundSystem, key: str) -> int:
    if bound.letters is not None and key in bound.letters:
        return bound.letters.index(key)
    if all(c in BASE36 for c in key.lower()) and len(key) >= 1:
        try:
            idx = int(key, 36) if len(key) == 1 else int(key, 10)
        except ValueError:
            idx = -1
        if 0 <= idx < bound.alphabet_size:
            return idx
    raise BindingError("symbol %r is outside system %r" % (key, bound.name))


def bind_observable(decl, bound: BoundSystem) -> "_spectral.Observable":
    if decl.kind == "walsh":
        if bound.alphabet_size != 2:
            raise BindingError(
                "walsh observables need a binary alphabet, system %r has %d symbols"
                % (bound.name, bound.alphabet_size)
            )
        return _spectral.make_walsh(decl.coords, name=decl.name)
    if decl.kind == "indicator":
        block = tuple(resolve_symbol(bound, c) for c in decl.block)
        return _spectral.make_block_indicator(block, decl.offset, bound.alphabet_size, name=decl.name)
    values, keys = {}, {}  # symbol -> its value, and the key that gave it
    for key, value in decl.entries:
        symbol = resolve_symbol(bound, key)
        if symbol in keys:
            raise BindingError("observable %r gives one symbol twice, as %r and as %r" % (decl.name, keys[symbol], key))
        values[symbol] = value
        keys[symbol] = key
    return _spectral.make_symbol_table(values, bound.alphabet_size, name=decl.name)


def bind_experiment(decl, bound: BoundSystem, observable: "_spectral.Observable") -> ExperimentConfig:
    """The unweighted config of a declaration; building it checks every rule of the run."""
    return ExperimentConfig(
        name=decl.name,
        stream=bound.stream,
        observable=observable,
        sample_size=decl.sample_size,
        checkpoints=None if decl.checkpoints == "pow2" else decl.checkpoints,
        kbsz=decl.kbsz,
    )
