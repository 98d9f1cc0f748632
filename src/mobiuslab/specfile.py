"""Declarative spec files for systems, observables, and experiment runs.

Grammar (comments run from '#' to end of line; strings are double-quoted
with no escapes; letters and block symbols are single characters, group
element symbols are base-36 digits of the element index):

    document     = { declaration }
    declaration  = substitution | morse | rs | veech | observable | experiment
    substitution = "substitution" NAME "on" "{" letter {"," letter} "}"
                   "{" { letter "->" STRING ";" } "}"
    morse        = "morse" NAME "over" group "blocks"
                   "[" { STRING "," } "repeat" STRING "]"
    group        = "Z2" | "Zn" "(" INT ")" | "Sym" "(" INT ")" | "cover-of" NAME
    rs           = "rs" NAME "pattern" STRING
    veech        = "veech" NAME "base" INT "group" group
                   "psi" [STRING] "repeat" STRING
    observable   = "observable" NAME "=" obs
    obs          = "walsh" "{" [INT {"," INT}] "}"
                 | "indicator" STRING "at" INT
                 | "table" "{" key ":" number {"," key ":" number} "}"
    experiment   = "experiment" NAME "{" { field ";" } "}"
    field        = "system" ":" NAME | "observable" ":" NAME
                 | "weight" ":" ("moebius" | "liouville" | "none")
                 | "N" ":" INT
                 | "checkpoints" ":" ("pow2" | "[" INT {"," INT} "]")
                 | "kbsz" ":" "(" INT "," INT ")"

The lexer is one compiled pattern with a named group per token kind, matched
over each source line.  Every "expected X, found Y" diagnostic comes from
one rule, _Parser.take.  After any diagnostic the parser resumes at the next
declaration keyword outside brackets; a name that is a reserved keyword is
refused before it is consumed.  Parsing is all or nothing: parse_spec returns a
SpecDocument only when no diagnostic was raised, otherwise the list of
diagnostics, each with the line, column and source line of the offending
token.  The validator scopes names, binds each system once through the binding
module, which holds every rule of a declaration, and checks each experiment
from declarations (binding.observable_span, experiment.check_run) with no Walsh
or indicator table built, so a document that parses also binds and runs within
the sample-size cap; it keeps its bound systems.  Document equality ignores
source positions and bound systems, so parse(print_spec(doc)) == doc.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .arith import WEIGHT_KINDS
from .binding import BindingError, bind_system, build_group, observable_span
from .errors import CapacityError
from .experiment import check_run

# Each declaration keyword, in grammar order, with what diagnostics call the name after it.
DECL_KEYWORDS = {
    "substitution": "a substitution name",
    "morse": "a morse system name",
    "rs": "an rs system name",
    "veech": "a veech system name",
    "observable": "an observable name",
    "experiment": "an experiment name",
}
WEIGHT_NAMES = WEIGHT_KINDS + ("none",)


@dataclass(frozen=True)
class Span:
    line: int
    column: int


_NO_SPAN = Span(0, 0)


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    line: int
    column: int
    excerpt: str

    def render(self) -> str:
        return "%s: line %d, column %d: %s\n  %s" % (
            self.severity,
            self.line,
            self.column,
            self.message,
            self.excerpt,
        )


@dataclass(frozen=True)
class GroupExpr:
    kind: str  # "Z2" | "Zn" | "Sym" | "cover"
    param: object = None  # int for Zn/Sym, substitution name for cover
    span: Span = field(default=_NO_SPAN, compare=False)

    def render(self) -> str:
        if self.kind == "Z2":
            return "Z2"
        if self.kind == "cover":
            return "cover-of %s" % self.param
        return "%s(%d)" % (self.kind, self.param)


@dataclass(frozen=True)
class SubstitutionDecl:
    kind = "substitution"
    name: str
    letters: tuple
    rules: tuple  # ((letter, image string), ...) in source order
    span: Span = field(default=_NO_SPAN, compare=False)
    rule_spans: tuple = field(default=(), compare=False)

    def rule_span(self, i: int) -> Span:
        return self.rule_spans[i] if i < len(self.rule_spans) else self.span


@dataclass(frozen=True)
class MorseDecl:
    kind = "morse"
    name: str
    group: GroupExpr
    blocks: tuple  # head block strings
    tail: str
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class RsDecl:
    kind = "rs"
    name: str
    pattern: str
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class VeechDecl:
    kind = "veech"
    name: str
    base: int
    group: GroupExpr
    psi_head: str
    psi_tail: str
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class ObservableDecl:
    name: str
    kind: str  # "walsh" | "indicator" | "table"
    coords: tuple = ()
    block: str = ""
    offset: int = 0
    entries: tuple = ()  # ((key string, float value), ...)
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class ExperimentDecl:
    name: str
    system: str
    observable: str
    weight: str = "none"
    sample_size: int = 0
    checkpoints: object = "pow2"  # "pow2" or tuple of ints
    kbsz: tuple | None = None
    span: Span = field(default=_NO_SPAN, compare=False)


# Each system declaration names its kind in a class attribute, not a field;
# the binding module dispatches on it.
SYSTEM_DECLS = (SubstitutionDecl, MorseDecl, RsDecl, VeechDecl)


@dataclass(frozen=True)
class SpecDocument:
    declarations: tuple
    bound: dict = field(default_factory=dict, compare=False, repr=False)  # system name -> BoundSystem

    def systems(self) -> dict:
        return {d.name: d for d in self.declarations if isinstance(d, SYSTEM_DECLS)}

    def observables(self) -> dict:
        return {d.name: d for d in self.declarations if isinstance(d, ObservableDecl)}

    def experiments(self) -> list:
        return [d for d in self.declarations if isinstance(d, ExperimentDecl)]


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NUMBER STRING PUNCT ARROW MINUS EOF
    text: str
    line: int
    column: int


# One named group per token kind; blanks and comments match unnamed, BAD any other
# character.  IDENT also admits numerics such as '²' first; _tokenize refuses those.
_TOKEN = re.compile(
    r"""[ \t\r]+|\#.*
    |"(?P<STRING>[^"]*)"
    |(?P<IDENT>[^\W\d]\w*)
    |(?P<NUMBER>[0-9](?:[eE][+-]?|[0-9.])*)
    |(?P<ARROW>->)|(?P<MINUS>-)
    |(?P<PUNCT>[{}\[\](),;:=])
    |(?P<BAD>.)""",
    re.VERBOSE,
)


class _LexError(Exception):
    """Raised by _tokenize with the arguments (message, line, column)."""


def _tokenize(lines):
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        for m in _TOKEN.finditer(line):
            kind = m.lastgroup
            if kind is None:
                continue
            text = m[kind]
            if kind == "BAD" or (kind == "IDENT" and not (text[0].isalpha() or text[0] == "_")):
                message = "unterminated string" if text == '"' else "unexpected character %r" % text[0]
                raise _LexError(message, lineno, m.start() + 1)
            tokens.append(_Token(kind, text, lineno, m.start() + 1))
    tokens.append(_Token("EOF", "", len(lines), len(lines[-1]) + 1))
    return tokens


def _diagnostic(message, line, column, lines) -> Diagnostic:
    """An error at (line, column), with that source line as its excerpt."""
    excerpt = lines[line - 1] if 1 <= line <= len(lines) else ""
    return Diagnostic("error", message, line, column, excerpt)


class _ParseAbort(Exception):
    """Raised to unwind to the declaration loop after recording a diagnostic."""


class _Parser:
    def __init__(self, tokens, lines):
        self.tokens = tokens
        self.lines = lines
        self.pos = 0
        self.diagnostics = []

    # token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind, text=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def error(self, message, where=None):
        """Record message at where (a token or a Span; default the next token) and abort."""
        where = where or self.peek()
        self.diagnostics.append(_diagnostic(message, where.line, where.column, self.lines))
        raise _ParseAbort()

    def found(self) -> str:
        """The next token as a diagnostic names it: its text, or end of input."""
        tok = self.peek()
        return tok.text if tok.kind != "EOF" else "end of input"

    def take(self, what, kinds, ok=None) -> _Token:
        """The next token, consumed, if its kind is in kinds and ok(text) holds.

        Otherwise 'expected what, found ...' at that token, which stays unread:
        every such diagnostic of the parser comes from here.
        """
        tok = self.peek()
        if tok.kind not in kinds or (ok is not None and not ok(tok.text)):
            self.error("expected %s, found %r" % (what, self.found()))
        return self.advance()

    def expect_punct(self, char) -> _Token:
        return self.take("'%s'" % char, ("PUNCT",), lambda text: text == char)

    def expect_keyword(self, word) -> _Token:
        return self.take("'%s'" % word, ("IDENT",), lambda text: text == word)

    def expect_name(self, what="a name") -> str:
        if self.at("IDENT") and self.peek().text in DECL_KEYWORDS:  # refused before it is consumed
            self.error("%r is a reserved keyword" % self.peek().text)
        return self.take(what, ("IDENT",)).text

    def expect_int(self, what="an integer") -> int:
        tok = self.take(what, ("NUMBER",), str.isdigit)
        try:
            return int(tok.text)
        except ValueError:  # past sys.get_int_max_str_digits()
            self.error("integer of %d digits is too long" % len(tok.text), tok)

    def expect_letter(self, what="a single-character letter") -> str:
        return self.take(what, ("IDENT", "NUMBER"), lambda text: len(text) == 1).text

    def expect_number(self) -> float:
        sign = 1.0
        if self.at("MINUS"):
            self.advance()
            sign = -1.0
        tok = self.take("a number", ("NUMBER",))
        try:
            number = sign * float(tok.text)
        except ValueError:
            self.error("malformed number %r" % tok.text, tok)
        if not math.isfinite(number):
            self.error("number %r is too large for a float" % ("-" * (sign < 0) + tok.text), tok)
        return number

    # recovery

    def comma_list(self, parse) -> list:
        """parse() once, then once more after each ','."""
        items = [parse()]
        while self.at("PUNCT", ","):
            self.advance()
            items.append(parse())
        return items

    def skip_to_next_declaration(self):
        depth = 0
        while not self.at("EOF"):
            tok = self.peek()
            if depth <= 0 and tok.kind == "IDENT" and tok.text in DECL_KEYWORDS:
                return
            if tok.kind == "PUNCT" and tok.text in "{[(":
                depth += 1
            elif tok.kind == "PUNCT" and tok.text in ")]}":
                depth -= 1
            self.advance()

    # grammar

    def parse_document(self):
        """Each declaration's keyword and name, then parse_<keyword>(name, span of the keyword)."""
        decls = []
        keywords = "a declaration keyword (%s)" % ", ".join(DECL_KEYWORDS)
        while not self.at("EOF"):
            start = self.pos
            try:
                keyword = self.take(keywords, ("IDENT",), lambda text: text in DECL_KEYWORDS)
                name = self.expect_name(DECL_KEYWORDS[keyword.text])
                decls.append(getattr(self, "parse_" + keyword.text)(name, Span(keyword.line, keyword.column)))
            except _ParseAbort:
                if self.pos == start:
                    self.advance()
                self.skip_to_next_declaration()
        return decls

    def parse_substitution(self, name, span):
        self.expect_keyword("on")
        self.expect_punct("{")
        letters = self.comma_list(self.expect_letter)
        known = set(letters)
        self.expect_punct("}")
        self.expect_punct("{")
        rules = []
        rule_spans = []
        while not self.at("PUNCT", "}"):
            if self.at("EOF"):
                self.error("unterminated substitution body")
            letter_tok = self.peek()
            letter = self.expect_letter("a letter on the left of '->'")
            if letter not in known:
                self.error("unknown letter %r (alphabet is {%s})" % (letter, ", ".join(letters)), letter_tok)
            self.take("'->'", ("ARROW",))
            image = self.take("a quoted image word", ("STRING",))
            self.expect_punct(";")
            rules.append((letter, image.text))
            rule_spans.append(Span(image.line, image.column))
        self.expect_punct("}")
        return SubstitutionDecl(name, tuple(letters), tuple(rules), span, tuple(rule_spans))

    def parse_group(self) -> GroupExpr:
        tok = self.take("a group (Z2, Zn(k), Sym(r), cover-of NAME)", ("IDENT",))
        span = Span(tok.line, tok.column)
        word = tok.text
        if word == "Z2":
            return GroupExpr("Z2", None, span)
        if word in ("Zn", "Sym"):
            self.expect_punct("(")
            value = self.expect_int("the %s parameter" % word)
            self.expect_punct(")")
            return GroupExpr(word, value, span)
        if word == "cover":
            self.take("'-' of cover-of", ("MINUS",))
            self.expect_keyword("of")
            target = self.expect_name("a substitution name")
            return GroupExpr("cover", target, span)
        self.error("unknown group %r (expected Z2, Zn(k), Sym(r), cover-of NAME)" % word, tok)

    def parse_morse(self, name, span):
        self.expect_keyword("over")
        group = self.parse_group()
        blocks = []
        tail = ""  # empty tail means "inherit the cover block"
        if self.at("IDENT", "blocks"):
            self.advance()
            self.expect_punct("[")
            while not self.at("IDENT", "repeat"):
                blocks.append(self.take("a block or 'repeat'", ("STRING",)).text)
                self.take("',' or 'repeat'", ("PUNCT",), lambda text: text == ",")
            self.advance()  # 'repeat'
            tail = self.take("the repeated block", ("STRING",)).text
            self.expect_punct("]")
        return MorseDecl(name, group, tuple(blocks), tail, span)

    def parse_rs(self, name, span):
        self.expect_keyword("pattern")
        pattern = self.take("a pattern string", ("STRING",))
        return RsDecl(name, pattern.text, span)

    def parse_veech(self, name, span):
        self.expect_keyword("base")
        base = self.expect_int("the odometer base")
        self.expect_keyword("group")
        group = self.parse_group()
        self.expect_keyword("psi")
        head = ""
        if self.at("STRING"):
            head = self.advance().text
        self.expect_keyword("repeat")
        tail = self.take("the repeated psi block", ("STRING",)).text
        return VeechDecl(name, base, group, head, tail, span)

    def parse_observable(self, name, span):
        self.expect_punct("=")
        tok = self.take("walsh, indicator, or table", ("IDENT",))
        kind = tok.text
        if kind == "walsh":
            self.expect_punct("{")
            coords = []
            if not self.at("PUNCT", "}"):
                coords = self.comma_list(lambda: self.expect_int("a window coordinate"))
            self.expect_punct("}")
            return ObservableDecl(name, "walsh", coords=tuple(coords), span=span)
        if kind == "indicator":
            block = self.take("a block string", ("STRING",))
            self.expect_keyword("at")
            offset = self.expect_int("the window offset")
            return ObservableDecl(name, "indicator", block=block.text, offset=offset, span=span)
        if kind == "table":
            self.expect_punct("{")
            entries = self.comma_list(self.parse_table_entry)
            self.expect_punct("}")
            return ObservableDecl(name, "table", entries=tuple(entries), span=span)
        self.error("unknown observable kind %r (expected walsh, indicator, or table)" % kind, tok)

    def parse_table_entry(self):
        key = self.take("a symbol key", ("IDENT", "NUMBER")).text
        self.expect_punct(":")
        return (key, self.expect_number())

    def parse_experiment(self, name, span):
        self.expect_punct("{")
        fields = {}
        order = ("system", "observable", "weight", "N", "checkpoints", "kbsz")
        while not self.at("PUNCT", "}"):
            if self.at("EOF"):
                self.error("unterminated experiment body")
            key_tok = self.peek()
            if key_tok.kind != "IDENT" or key_tok.text not in order:
                self.error("unknown experiment field %r (expected one of %s)" % (key_tok.text, ", ".join(order)))
            key = self.advance().text
            if key in fields:
                self.error("duplicate field %r" % key, key_tok)
            self.expect_punct(":")
            fields[key] = self.parse_experiment_value(key)
            self.expect_punct(";")
        self.expect_punct("}")
        for required in ("system", "observable", "N"):
            if required not in fields:
                self.error("experiment %r is missing the %r field" % (name, required), span)
        return ExperimentDecl(
            name=name,
            system=fields["system"],
            observable=fields["observable"],
            weight=fields.get("weight", "none"),
            sample_size=fields["N"],
            checkpoints=fields.get("checkpoints", "pow2"),
            kbsz=fields.get("kbsz"),
            span=span,
        )

    def parse_experiment_value(self, key):
        if key in ("system", "observable"):
            return self.expect_name("a declared name")
        if key == "weight":
            tok = self.peek()
            if tok.kind != "IDENT" or tok.text not in WEIGHT_NAMES:
                self.error("weight must be one of %s, found %r" % (", ".join(WEIGHT_NAMES), self.found()))
            return self.advance().text
        if key == "N":
            return self.expect_int("the sample size")
        if key == "checkpoints":
            if self.at("IDENT", "pow2"):
                self.advance()
                return "pow2"
            self.expect_punct("[")
            points = self.comma_list(lambda: self.expect_int("a checkpoint"))
            self.expect_punct("]")
            return tuple(points)
        if key == "kbsz":
            self.expect_punct("(")
            r = self.expect_int("a prime")
            self.expect_punct(",")
            s = self.expect_int("a prime")
            self.expect_punct(")")
            return (r, s)
        raise AssertionError(key)


class _Validator:
    def __init__(self, declarations, source_lines):
        self.declarations = declarations
        self.source_lines = source_lines
        self.diagnostics = []
        self.bound = {}  # system name -> BoundSystem
        self.groups = {}  # GroupExpr -> (group, cover) built once for the document

    def error(self, message, span):
        self.diagnostics.append(_diagnostic(message, span.line, span.column, self.source_lines))

    def run(self):
        systems, observables, experiments = {}, {}, {}
        for decl in self.declarations:
            scope = {ObservableDecl: observables, ExperimentDecl: experiments}.get(type(decl), systems)
            first = scope.setdefault(decl.name, decl).span
            if scope[decl.name] is not decl:
                where = "line %d, column %d" % (first.line, first.column)
                self.error("duplicate name %r (first declared at %s)" % (decl.name, where), decl.span)

        # substitutions first: cover-of systems are built from bound ones
        for decl in sorted(systems.values(), key=lambda d: d.kind != "substitution"):
            self.bind(decl, systems)
        for decl in self.declarations:
            if isinstance(decl, ExperimentDecl):
                self.check_experiment(decl, systems, observables)
        return sorted(self.diagnostics, key=lambda d: (d.line, d.column))

    def bind(self, decl, systems):
        """Bind a system, locating a refusal at its BindingError's span, or else at the declaration."""
        try:
            group = cover = None
            if isinstance(decl, (MorseDecl, VeechDecl)):
                if decl.group not in self.groups:  # a failed build is retried, so each declaration is located
                    self.groups[decl.group] = build_group(decl.group, systems, self.bound)
                group, cover = self.groups[decl.group]
            self.bound[decl.name] = bind_system(decl, group, cover)
        except BindingError as exc:
            if exc.span is not None:  # None: a cover-of target's refusal, located at that target
                self.error(str(exc), exc.span)
        except (ValueError, CapacityError) as exc:
            self.error(str(exc), decl.span)

    def check_experiment(self, decl, systems, observables):
        """Check every run rule of decl against its system, from its observable's declaration."""
        if decl.system not in systems:
            self.error("experiment refers to unknown system %r" % decl.system, decl.span)
        obs = observables.get(decl.observable)
        if obs is None:
            self.error("experiment refers to unknown observable %r" % decl.observable, decl.span)
        system = self.bound.get(decl.system)
        if system is None or obs is None:
            return
        try:
            checkpoints = None if decl.checkpoints == "pow2" else decl.checkpoints
            check_run(decl.sample_size, checkpoints, decl.kbsz, observable_span(obs, system))
        except ValueError as exc:
            self.error(str(exc), decl.span)


def parse_spec(text: str):
    """Parse a document; returns SpecDocument or the list of Diagnostics."""
    lines = text.split("\n")
    try:
        tokens = _tokenize(lines)
    except _LexError as exc:
        return [_diagnostic(*exc.args, lines)]
    parser = _Parser(tokens, lines)
    decls = parser.parse_document()
    if parser.diagnostics:
        return parser.diagnostics
    validator = _Validator(decls, lines)
    diagnostics = validator.run()
    if diagnostics:
        return diagnostics
    return SpecDocument(tuple(decls), validator.bound)


def _render_value(v: float) -> str:
    if v == int(v):
        return "%d" % int(v)
    return repr(v)


def print_spec(doc: SpecDocument) -> str:
    """Canonical form; parse(print_spec(doc)) equals doc."""
    chunks = []
    for decl in doc.declarations:
        if isinstance(decl, SubstitutionDecl):
            lines = ["substitution %s on {%s} {" % (decl.name, ", ".join(decl.letters))]
            for letter, image in decl.rules:
                lines.append('  %s -> "%s";' % (letter, image))
            lines.append("}")
            chunks.append("\n".join(lines))
        elif isinstance(decl, MorseDecl):
            if decl.tail:
                parts = ['"%s", ' % b for b in decl.blocks]
                suffix = ' blocks [%srepeat "%s"]' % ("".join(parts), decl.tail)
            else:
                suffix = ""
            chunks.append("morse %s over %s%s" % (decl.name, decl.group.render(), suffix))
        elif isinstance(decl, RsDecl):
            chunks.append('rs %s pattern "%s"' % (decl.name, decl.pattern))
        elif isinstance(decl, VeechDecl):
            head = '"%s" ' % decl.psi_head if decl.psi_head else ""
            chunks.append(
                'veech %s base %d group %s psi %srepeat "%s"'
                % (decl.name, decl.base, decl.group.render(), head, decl.psi_tail)
            )
        elif isinstance(decl, ObservableDecl):
            if decl.kind == "walsh":
                chunks.append("observable %s = walsh {%s}" % (decl.name, ", ".join(map(str, decl.coords))))
            elif decl.kind == "indicator":
                chunks.append('observable %s = indicator "%s" at %d' % (decl.name, decl.block, decl.offset))
            else:
                body = ", ".join("%s: %s" % (k, _render_value(v)) for k, v in decl.entries)
                chunks.append("observable %s = table {%s}" % (decl.name, body))
        elif isinstance(decl, ExperimentDecl):
            points = "pow2" if decl.checkpoints == "pow2" else "[%s]" % ", ".join(map(str, decl.checkpoints))
            lines = ["experiment %s {" % decl.name, "  system: %s;" % decl.system,
                     "  observable: %s;" % decl.observable, "  weight: %s;" % decl.weight,
                     "  N: %d;" % decl.sample_size, "  checkpoints: %s;" % points]
            if decl.kbsz is not None:
                lines.append("  kbsz: (%d, %d);" % decl.kbsz)
            lines.append("}")
            chunks.append("\n".join(lines))
        else:
            raise TypeError("unknown declaration %r" % (decl,))
    return "\n\n".join(chunks) + "\n"
