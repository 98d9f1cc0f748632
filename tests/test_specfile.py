import pathlib

import pytest

from mobiuslab.specfile import (
    Diagnostic,
    ExperimentDecl,
    GroupExpr,
    MorseDecl,
    SpecDocument,
    SubstitutionDecl,
    parse_spec,
    print_spec,
)

SPECS = pathlib.Path(__file__).parent / "fixtures" / "specs"
VALID = sorted((SPECS / "valid").glob("*.spec"))
MALFORMED = SPECS / "malformed"


def parse_ok(text):
    result = parse_spec(text)
    assert isinstance(result, SpecDocument), [d.render() for d in result]
    return result


def parse_bad(text):
    result = parse_spec(text)
    assert isinstance(result, list) and result
    return result


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
def test_valid_corpus_round_trips(path):
    doc = parse_ok(path.read_text())
    printed = print_spec(doc)
    again = parse_ok(printed)
    assert again == doc
    # canonical output is a fixed point of the printer
    assert print_spec(again) == printed


def test_spans_do_not_affect_equality():
    text = VALID[0].read_text()
    shifted = "# pushed down\n\n\n" + text
    assert parse_ok(text) == parse_ok(shifted)


def test_document_accessors():
    doc = parse_ok((SPECS / "valid" / "thue_morse.spec").read_text())
    assert set(doc.systems()) == {"tm"}
    assert set(doc.observables()) == {"w0", "ind01"}
    assert [e.name for e in doc.experiments()] == ["sarnak_tm_moebius", "kbsz_tm_3_5"]
    tm = doc.systems()["tm"]
    assert isinstance(tm, SubstitutionDecl)
    assert tm.letters == ("0", "1")
    assert tm.rules == (("0", "01"), ("1", "10"))


def test_experiment_defaults():
    doc = parse_ok(
        'rs r pattern "11"\n'
        "observable w = walsh {0}\n"
        "experiment e { system: r; observable: w; N: 64; }\n"
    )
    exp = doc.experiments()[0]
    assert exp.weight == "none"
    assert exp.checkpoints == "pow2"
    assert exp.kbsz is None


def test_group_expressions():
    doc = parse_ok(
        'morse a over Z2 blocks [repeat "01"]\n'
        'morse b over Zn(6) blocks [repeat "013"]\n'
        'morse c over Sym(3) blocks [repeat "02"]\n'
        "substitution h on {a, b} {\n"
        '  a -> "ab";\n  b -> "ba";\n'
        "}\n"
        "morse d over cover-of h\n"
    )
    groups = {name: decl.group for name, decl in doc.systems().items() if isinstance(decl, MorseDecl)}
    assert groups["a"] == GroupExpr("Z2")
    assert groups["b"] == GroupExpr("Zn", 6)
    assert groups["c"] == GroupExpr("Sym", 3)
    assert groups["d"] == GroupExpr("cover", "h")
    # the cover variant carries no blocks clause and prints without one
    assert doc.systems()["d"].tail == ""
    assert "morse d over cover-of h" in print_spec(doc)


def test_cover_with_blocks_rejected():
    diags = parse_bad(
        "substitution h on {a, b} {\n"
        '  a -> "ab";\n  b -> "ba";\n'
        "}\n"
        'morse d over cover-of h blocks [repeat "01"]\n'
    )
    assert "cover" in diags[0].message


def test_morse_without_blocks_rejected():
    diags = parse_bad("morse d over Z2\n")
    assert any("blocks" in d.message for d in diags)


def test_block_symbol_validation():
    diags = parse_bad('morse a over Z2 blocks [repeat "10"]\n')
    assert any("identity" in d.message for d in diags)
    diags = parse_bad('morse a over Z2 blocks [repeat "02"]\n')
    assert any("outside the group" in d.message for d in diags)


def expect_one(name, line, column, fragment):
    text = (MALFORMED / name).read_text()
    diags = parse_bad(text)
    assert len(diags) == 1, [d.render() for d in diags]
    d = diags[0]
    assert d.severity == "error"
    assert (d.line, d.column) == (line, column)
    assert fragment in d.message
    assert d.excerpt.strip()
    assert d.excerpt in text.splitlines()[d.line - 1] or d.excerpt == text.splitlines()[d.line - 1]
    return d


def test_missing_arrow():
    d = expect_one("missing_arrow.spec", 2, 5, "expected '->'")
    assert '"01"' in d.excerpt or "01" in d.excerpt


def test_unknown_letter():
    d = expect_one("unknown_letter.spec", 2, 8, "unknown letter 'c'")
    assert '"ac"' in d.excerpt


def test_unterminated_string():
    expect_one("unterminated_string.spec", 1, 14, "unterminated string")


def test_duplicate_names():
    d = expect_one("duplicate_names.spec", 2, 1, "duplicate name 'r'")
    assert "line 1, column 1" in d.message


def test_row_length_mismatch():
    d = expect_one("length_mismatch.spec", 3, 8, "has length 3, others have 2")
    assert '"bab"' in d.excerpt


def test_dangling_references():
    diags = parse_bad((MALFORMED / "dangling_reference.spec").read_text())
    messages = "\n".join(d.message for d in diags)
    assert "unknown system 'ghost'" in messages
    assert "unknown observable 'w'" in messages


def test_nonprime_kbsz():
    diags = parse_bad((MALFORMED / "nonprime_kbsz.spec").read_text())
    assert len(diags) == 1
    assert "distinct primes" in diags[0].message
    assert "(4, 5)" in diags[0].message


KBSZ_TEMPLATE = """substitution tm on {0, 1} {
  0 -> "01";
  1 -> "10";
}
observable w = walsh {0}
experiment e {
  system: tm;
  observable: w;
  N: 16;
  kbsz: (3, %d);
}
"""


def test_kbsz_large_prime_parses():
    doc = parse_ok(KBSZ_TEMPLATE % (10**14 + 31))
    assert doc.experiments()[0].kbsz == (3, 10**14 + 31)


def test_kbsz_beyond_primality_bound_is_located():
    diags = parse_bad(KBSZ_TEMPLATE % 10**30)
    assert len(diags) == 1
    d = diags[0]
    assert d.severity == "error"
    assert (d.line, d.column) == (6, 1)
    assert "not decided" in d.message and "(3, %d)" % 10**30 in d.message


def test_recovery_collects_multiple_errors():
    # two broken declarations, both reported, one diagnostic each
    text = (
        "substitution one on {a} {\n"
        "  a -> ;\n"
        "}\n"
        "substitution two on {b} {\n"
        '  b "b";\n'
        "}\n"
        'rs three pattern "11"\n'
    )
    diags = parse_bad(text)
    assert len(diags) == 2
    assert (diags[0].line, diags[1].line) == (2, 5)
    assert all(isinstance(d, Diagnostic) for d in diags)


def test_all_or_nothing():
    text = 'rs good pattern "11"\nrs bad pattern "00"\n'
    result = parse_spec(text)
    assert isinstance(result, list)


def test_observable_forms():
    doc = parse_ok(
        "substitution tm on {0, 1} {\n"
        '  0 -> "01";\n  1 -> "10";\n'
        "}\n"
        "observable a = walsh {}\n"
        "observable b = walsh {0, 2}\n"
        'observable c = indicator "01" at 3\n'
        "observable d = table {0: 0.5, 1: -0.5}\n"
    )
    obs = doc.observables()
    assert obs["a"].kind == "walsh" and obs["a"].coords == ()
    assert obs["b"].coords == (0, 2)
    assert obs["c"].kind == "indicator" and obs["c"].block == "01" and obs["c"].offset == 3
    assert obs["d"].kind == "table" and dict(obs["d"].entries) == {"0": 0.5, "1": -0.5}


def test_table_float_printing():
    doc = parse_ok("morse m over Z2 blocks [repeat \"01\"]\nobservable t = table {0: 1, 1: -0.25}\n")
    printed = print_spec(doc)
    assert "0: 1," in printed and "-0.25" in printed
    assert parse_ok(printed) == doc


def test_experiment_field_checks():
    base = (
        'rs r pattern "11"\n'
        "observable w = walsh {0}\n"
    )
    diags = parse_bad(base + "experiment e { observable: w; N: 4; }\n")
    assert any("system" in d.message for d in diags)
    diags = parse_bad(base + "experiment e { system: r; observable: w; N: 0; }\n")
    assert any("N" in d.message for d in diags)
    diags = parse_bad(
        base + "experiment e { system: r; observable: w; N: 8; checkpoints: [4, 2]; }\n"
    )
    assert any("ascending" in d.message for d in diags)
    diags = parse_bad(
        base + "experiment e { system: r; observable: w; N: 8; N: 16; }\n"
    )
    assert any("duplicate" in d.message for d in diags)


def test_walsh_binding_checked_for_known_alphabets():
    diags = parse_bad(
        "substitution h on {a, b, c} {\n"
        '  a -> "ab";\n  b -> "ca";\n  c -> "bc";\n'
        "}\n"
        "observable w = walsh {0}\n"
        "experiment e { system: h; observable: w; N: 4; }\n"
    )
    assert any("walsh" in d.message and "binary" in d.message for d in diags)


def test_diagnostic_render_format():
    diags = parse_bad('rs r pattern "00"\n')
    rendered = diags[0].render()
    assert rendered.startswith("error: line 1, column ")
    assert "\n  " in rendered
