"""Lexer for DML-lite.

Token kinds (docs/LANGUAGE.md §1):

* ``INT`` — decimal integer literals ``[0-9]+``,
* ``ID`` — identifiers ``[A-Za-z_][A-Za-z0-9_']*`` (including
  constructor names; a lone ``_`` is the wildcard symbol),
* ``TYVAR`` — ``'a``-style type variables,
* keywords (ML's plus ``typeref``, ``assert``, ``where``),
* punctuation and operators, including the paper's ``<|`` annotation
  arrow.

Comments are SML's ``(* ... *)``, nest, and may hold any text; outside
them every character must belong to a token or be ASCII whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.lang.errors import LexError
from repro.lang.source import SourceFile, Span

KEYWORDS = frozenset(
    {
        "fun",
        "val",
        "let",
        "in",
        "end",
        "if",
        "then",
        "else",
        "case",
        "of",
        "fn",
        "datatype",
        "typeref",
        "with",
        "assert",
        "and",
        "where",
        "type",
        "exception",
        "raise",
        "handle",
        "andalso",
        "orelse",
        "not",
        "div",
        "mod",
        "true",
        "false",
        "op",
    }
)

#: Multi-character symbols, longest first so maximal munch works.
SYMBOLS = (
    "<|",
    "=>",
    "->",
    "<=",
    ">=",
    "<>",
    "::",
    "/\\",
    "\\/",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    ";",
    "|",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "~",
    "_",
    ".",
)


@dataclass(frozen=True)
class Token:
    kind: str  # "INT", "ID", "TYVAR", "EOF", a keyword, or a symbol
    text: str
    span: Span

    def __str__(self) -> str:
        return self.text or self.kind


#: One regex for every token class of docs/LANGUAGE.md §1.  Each match
#: skips the whitespace before a token and captures exactly one named
#: group: the token, a comment opener (comments nest, so
#: :func:`_skip_comment` consumes the body), the end of input, a quote
#: that starts no type variable, or any other single character.
_TOKEN = re.compile(
    rf"""[ \t\r\n]*(?:
      (?P<COMMENT>\(\*)
    | (?P<INT>[0-9]+)
    | (?P<TYVAR>'[A-Za-z_][A-Za-z0-9_]*)
    | (?P<QUOTE>')
    | (?P<ID>(?:[A-Za-z]|_(?=[A-Za-z0-9_]))[A-Za-z0-9_']*)
    | (?P<SYMBOL>{'|'.join(map(re.escape, SYMBOLS))})
    | (?P<END>\Z)
    | (?P<OTHER>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: SourceFile) -> list[Token]:
    """Tokenize an entire source file; raises :class:`LexError`.

    Only the ASCII characters of the documented token classes may
    appear outside comments."""
    text = source.text
    match = _TOKEN.match
    tokens: list[Token] = []
    pos = 0
    while True:
        found = match(text, pos)
        group = found.lastgroup
        start, pos = found.span(group)
        if group == "ID":
            word = found[group]
            kind = word if word in KEYWORDS else "ID"
            tokens.append(Token(kind, word, Span(start, pos)))
        elif group == "SYMBOL":
            symbol = found[group]
            tokens.append(Token(symbol, symbol, Span(start, pos)))
        elif group == "INT" or group == "TYVAR":
            tokens.append(Token(group, found[group], Span(start, pos)))
        elif group == "COMMENT":
            pos = _skip_comment(source, start)
        elif group == "END":
            break
        elif group == "QUOTE":
            raise LexError("expected type variable after '", Span(start, pos))
        else:
            raise LexError(
                f"unexpected character {text[start]!r}", Span(start, pos)
            )
    tokens.append(Token("EOF", "", Span(pos, pos)))
    return tokens


def _skip_comment(source: SourceFile, pos: int) -> int:
    """Skip a nested ``(* ... *)`` comment starting at ``pos``."""
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
