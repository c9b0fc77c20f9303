"""Unit tests for the lexer."""

import random
from pathlib import Path

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import KEYWORDS, SYMBOLS, Token, tokenize
from repro.lang.source import SourceFile, Span

REPO = Path(__file__).resolve().parents[2]


def kinds(text):
    return [t.kind for t in tokenize(SourceFile(text))]


def texts(text):
    return [t.text for t in tokenize(SourceFile(text)) if t.kind != "EOF"]


class TestBasicTokens:
    def test_empty_input(self):
        assert kinds("") == ["EOF"]

    def test_whitespace_only(self):
        assert kinds("  \t\n  \r\n") == ["EOF"]

    def test_integer(self):
        tokens = tokenize(SourceFile("42"))
        assert tokens[0].kind == "INT"
        assert tokens[0].text == "42"

    def test_identifier(self):
        assert kinds("foo") == ["ID", "EOF"]

    def test_identifier_with_primes_and_digits(self):
        assert texts("x1 y' loop2'") == ["x1", "y'", "loop2'"]

    def test_underscore_identifier(self):
        assert kinds("_foo") == ["ID", "EOF"]

    def test_lone_underscore_is_wildcard(self):
        assert kinds("_") == ["_", "EOF"]

    def test_tyvar(self):
        tokens = tokenize(SourceFile("'a"))
        assert tokens[0].kind == "TYVAR"
        assert tokens[0].text == "'a"

    def test_tyvar_multichar(self):
        assert texts("'result") == ["'result"]

    def test_bad_tyvar(self):
        with pytest.raises(LexError):
            tokenize(SourceFile("' 1"))

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize(SourceFile("x @ y"))


class TestKeywords:
    @pytest.mark.parametrize("word", sorted(KEYWORDS))
    def test_keyword_kind(self, word):
        assert kinds(word)[0] == word

    def test_keyword_prefix_is_identifier(self):
        # "iffy" is not "if".
        assert kinds("iffy funny lets") == ["ID", "ID", "ID", "EOF"]


class TestSymbols:
    def test_annotation_arrow(self):
        assert kinds("f <| ty") == ["ID", "<|", "ID", "EOF"]

    def test_maximal_munch(self):
        assert kinds("<= < <> <|") == ["<=", "<", "<>", "<|", "EOF"]

    def test_arrow_vs_minus(self):
        assert kinds("-> - =>") == ["->", "-", "=>", "EOF"]

    def test_cons(self):
        assert kinds("x::xs") == ["ID", "::", "ID", "EOF"]

    def test_colon_vs_cons(self):
        assert kinds("x : t") == ["ID", ":", "ID", "EOF"]

    def test_logical_symbols(self):
        assert kinds("a /\\ b \\/ c") == ["ID", "/\\", "ID", "\\/", "ID", "EOF"]

    def test_braces_and_brackets(self):
        assert kinds("{n:nat} [i:int]") == [
            "{", "ID", ":", "ID", "}", "[", "ID", ":", "ID", "]", "EOF",
        ]


class TestComments:
    def test_simple_comment(self):
        assert kinds("(* hello *) x") == ["ID", "EOF"]

    def test_nested_comment(self):
        assert kinds("(* outer (* inner *) still *) x") == ["ID", "EOF"]

    def test_comment_with_code_inside(self):
        assert kinds("(* fun f x = x *) 42") == ["INT", "EOF"]

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize(SourceFile("(* unclosed"))

    def test_unterminated_nested_comment(self):
        with pytest.raises(LexError):
            tokenize(SourceFile("(* a (* b *)"))


class TestSpans:
    def test_token_spans_cover_text(self):
        source = SourceFile("foo 42")
        tokens = tokenize(source)
        assert source.text[tokens[0].span.start:tokens[0].span.end] == "foo"
        assert source.text[tokens[1].span.start:tokens[1].span.end] == "42"

    def test_eof_span_at_end(self):
        source = SourceFile("x")
        assert tokenize(source)[-1].span.start == 1


class TestRealPrograms:
    def test_figure1_tokenizes(self):
        text = """
        assert length <| {n:nat} 'a array(n) -> int(n)
        fun dotprod(v1, v2) = loop(0, length v1, 0)
        where dotprod <| {p:nat} int array(p) -> int
        """
        tokens = tokenize(SourceFile(text))
        assert tokens[-1].kind == "EOF"
        assert "assert" in [t.kind for t in tokens]

    def test_prelude_tokenizes(self):
        from repro import programs

        tokens = tokenize(SourceFile(programs.prelude_source()))
        assert tokens[-1].kind == "EOF"
        assert len(tokens) > 300


class TestAsciiOnly:
    """docs/LANGUAGE.md §1: identifiers and integers are ASCII."""

    @pytest.mark.parametrize("text, offset", [
        ("val x = \u00b2", 8),        # superscript two: isdigit() but no digit
        ("val x = \u0663", 8),        # Arabic-Indic three: int() reads 3
        ("val \u00e9 = 1", 4),        # Latin e-acute: isalpha()
        ("val x\u00e9 = 1", 5),       # ... also inside an identifier
        ("val x = 1\u0663", 9),       # ... and after a digit
        ("'a\u00e9", 2),              # ... and inside a type variable
        ("x \u00a0 y", 2),            # no-break space is not whitespace
    ])
    def test_non_ascii_outside_comments_is_rejected(self, text, offset):
        with pytest.raises(LexError) as info:
            tokenize(SourceFile(text))
        assert info.value.message == f"unexpected character {text[offset]!r}"
        assert info.value.span == Span(offset, offset + 1)

    def test_comments_may_be_non_ascii(self):
        assert kinds("(* caf\u00e9 \u2264 \u00b2 *) x") == ["ID", "EOF"]


def reference_tokenize(source):
    """The character-loop lexer the regex lexer replaced, kept verbatim
    (``str.isdigit``/``isalpha``/``isalnum`` included) as the reference
    on ASCII text, where those agree with the documented classes."""
    text = source.text
    n = len(text)
    pos = 0
    tokens = []

    while pos < n:
        ch = text[pos]

        if ch in " \t\r\n":
            pos += 1
            continue

        if text.startswith("(*", pos):
            pos = reference_skip_comment(source, pos)
            continue

        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(Token("INT", text[start:pos], Span(start, pos)))
            continue

        if ch == "'":
            start = pos
            pos += 1
            if pos >= n or not (text[pos].isalpha() or text[pos] == "_"):
                raise LexError("expected type variable after '", Span(start, pos))
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(Token("TYVAR", text[start:pos], Span(start, pos)))
            continue

        if ch.isalpha() or ch == "_" and reference_is_ident_start(text, pos):
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] in "_'"):
                pos += 1
            word = text[start:pos]
            kind = word if word in KEYWORDS else "ID"
            tokens.append(Token(kind, word, Span(start, pos)))
            continue

        matched = False
        for symbol in SYMBOLS:
            if text.startswith(symbol, pos):
                tokens.append(Token(symbol, symbol, Span(pos, pos + len(symbol))))
                pos += len(symbol)
                matched = True
                break
        if matched:
            continue

        raise LexError(f"unexpected character {ch!r}", Span(pos, pos + 1))

    tokens.append(Token("EOF", "", Span(n, n)))
    return tokens


def reference_is_ident_start(text, pos):
    return pos + 1 < len(text) and (text[pos + 1].isalnum() or text[pos + 1] == "_")


def reference_skip_comment(source, pos):
    text = source.text
    start = pos
    depth = 0
    n = len(text)
    while pos < n:
        if text.startswith("(*", pos):
            depth += 1
            pos += 2
        elif text.startswith("*)", pos):
            depth -= 1
            pos += 2
            if depth == 0:
                return pos
        else:
            pos += 1
    raise LexError("unterminated comment", Span(start, n))


def outcome(lex, text):
    """A lexer's token stream, or its error, in comparable form."""
    try:
        return [(t.kind, t.text, t.span) for t in lex(SourceFile(text))]
    except LexError as exc:
        return (type(exc), exc.message, exc.span)


class TestAgreesWithReference:
    def test_every_repository_program(self):
        paths = sorted(REPO.glob("**/*.dml"))
        assert len(paths) > 50
        for path in paths:
            text = path.read_text()
            assert outcome(tokenize, text) == outcome(reference_tokenize, text), path

    def test_random_ascii_strings(self):
        rng = random.Random(1505)
        chars = [chr(c) for c in range(32, 127)] + ["\t", "\n", "\r", "\x0b"]
        fragments = ["(*", "*)", "'a", "_", "_x", "x'", "42", "fun", " ", *SYMBOLS]
        for _ in range(20_000):
            text = "".join(
                rng.choice(fragments) if rng.random() < 0.3 else rng.choice(chars)
                for _ in range(rng.randint(0, 40))
            )
            assert outcome(tokenize, text) == outcome(reference_tokenize, text), text
