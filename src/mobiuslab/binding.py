"""The rules that turn spec declarations into systems, observables and experiments.

Every rule of a declaration lives here: a refusal (BindingError) carries the
span of the rule, group or declaration at fault.  specfile's validator binds
each system once, and checks each experiment with observable_span, which
builds no Walsh or indicator table, and experiment.check_run.  The CLI reads
the bound systems from the document and binds each observable it runs.

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
from .errors import CapacityError
from .permgrp import CLOSURE_CAP, FiniteGroup, cyclic_group, symmetric_group
from .streams import SymbolStream

BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"


class BindingError(ValueError):
    """A reference or value cannot bind; span locates it in the document, if any (None: see build_group)."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span


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
    """The substitution of a declaration, refused at the rule at fault, else at the declaration."""
    ruled = {}  # letter -> index of its first rule
    for i, (letter, _) in enumerate(decl.rules):
        if ruled.setdefault(letter, i) != i:
            raise BindingError("letter %r has more than one rule" % letter, decl.rule_span(i))
    missing = [l for l in decl.letters if l not in ruled]
    if missing:
        raise BindingError("missing rules for letters %s" % ", ".join(missing), decl.span)
    for i, (letter, image) in enumerate(decl.rules):
        for c in image:
            if c not in ruled:  # the alphabet: every letter has a rule, and the parser refused rules for others
                raise BindingError("rule for %r uses unknown letter %r" % (letter, c), decl.rule_span(i))
    first = len(decl.rules[0][1])
    for i, (letter, image) in enumerate(decl.rules):
        if len(image) != first:
            raise BindingError("rule for %r has length %d, others have %d" % (letter, len(image), first),
                               decl.rule_span(i))
    images, index = dict(decl.rules), {c: a for a, c in enumerate(decl.letters)}
    sub = _subst.Substitution([[index[c] for c in images[letter]] for letter in decl.letters], decl.letters)
    seeds = [a for a, row in enumerate(sub.rows) if row[0] == a]
    if not seeds:
        raise BindingError("substitution %r has no letter fixed at position 0, so no one-sided fixed point" % decl.name,
                           decl.span)
    return dataclasses.replace(sub, seed=seeds[0])


def build_group(expr, systems: dict, bound: dict):
    """(group, cover or None) of a group expression, refused at its span; a cover-of target is a bound substitution.

    systems maps declared names to declarations, bound to BoundSystems; a target that failed to bind is refused
    with no span, as its own refusal is located at it.
    """
    if expr.kind == "cover":
        target = systems.get(expr.param)
        if target is None:
            raise BindingError("cover-of refers to unknown system %r" % expr.param, expr.span)
        if target.kind != "substitution":
            raise BindingError("cover-of needs a substitution, %r is not one" % expr.param, expr.span)
        if expr.param not in bound:
            raise BindingError("cover-of target %r did not bind" % expr.param)
    try:
        if expr.kind == "Z2":
            return cyclic_group(2), None
        if expr.kind == "Zn":
            if not 2 <= expr.param <= CLOSURE_CAP:  # the table has n^2 entries
                raise ValueError("Zn needs 2 <= n <= %d, got %d" % (CLOSURE_CAP, expr.param))
            return cyclic_group(expr.param), None
        if expr.kind == "Sym":
            return symmetric_group(expr.param)[0], None
        cover = bound[expr.param].cover
        return cover.group, cover
    except (ValueError, CapacityError) as exc:
        raise BindingError(str(exc), expr.span) from None


def _symbols(word: str, order: int, what: str, span) -> tuple:
    """Element indices of a block or psi word over a group of the given order."""
    values = tuple(BASE36.find(c.lower()) for c in word)
    for c, v in zip(word, values):
        if not 0 <= v < order:
            raise BindingError("%s symbol %r is outside the group" % (what, c), span)
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
                raise BindingError("cover-of systems take their block from the cover; drop the blocks clause",
                                   decl.span)
            spec = cover.morse_spec()
        elif not decl.tail:
            raise BindingError('missing blocks clause (blocks [..., repeat "..."])', decl.span)
        else:
            blocks = tuple(_symbols(b, group.order, "block", decl.span) for b in decl.blocks)
            spec = _morse.MorseSpec(group, blocks, _symbols(decl.tail, group.order, "block", decl.span))
        return BoundSystem(decl.name, "morse", spec, group.order, _morse.morse_stream(spec, name=decl.name), group=group)
    vspec = _odometer.VeechSpec(
        _odometer.OdometerSpec(tail=decl.base),
        group,
        psi_head=_symbols(decl.psi_head, group.order, "psi head", decl.span),
        psi_tail=_symbols(decl.psi_tail, group.order, "psi repeat block", decl.span),
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


def _arguments(decl, bound: BoundSystem) -> tuple:
    """The checked arguments of a Walsh or indicator observable: (coords,) or (block, offset, alphabet size)."""
    if decl.kind == "indicator":
        return tuple(resolve_symbol(bound, c) for c in decl.block), decl.offset, bound.alphabet_size
    if bound.alphabet_size != 2:
        raise BindingError("walsh observables need a binary alphabet, system %r has %d symbols"
                           % (bound.name, bound.alphabet_size))
    return (decl.coords,)


def observable_span(decl, bound: BoundSystem) -> int:
    """The span of decl's observable over bound, refused as bind_observable refuses it.

    Only a table observable, one entry per symbol, is built: a Walsh or
    indicator window meets TABLE_CAP without its table.
    """
    if decl.kind == "table":
        return bind_observable(decl, bound).span
    window = _spectral.walsh_window if decl.kind == "walsh" else _spectral.indicator_window
    return window(*_arguments(decl, bound))[-1] + 1


def bind_observable(decl, bound: BoundSystem) -> "_spectral.Observable":
    if decl.kind == "walsh":
        return _spectral.make_walsh(*_arguments(decl, bound), name=decl.name)
    if decl.kind == "indicator":
        return _spectral.make_block_indicator(*_arguments(decl, bound), name=decl.name)
    values, keys = {}, {}  # symbol -> its value, and the key that gave it
    for key, value in decl.entries:
        symbol = resolve_symbol(bound, key)
        if symbol in keys:
            raise BindingError("observable %r gives one symbol twice, as %r and as %r" % (decl.name, keys[symbol], key))
        values[symbol] = value
        keys[symbol] = key
    return _spectral.make_symbol_table(values, bound.alphabet_size, name=decl.name)
