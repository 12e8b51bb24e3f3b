"""Model formula parsing: ``response ~ s(x1) + x2 + s(x3)``.

A formula names the response column left of ``~`` and a ``+``-separated
list of terms right of it. ``s(name)`` marks a smooth term (fitted by a
subnetwork), a bare ``name`` a linear term. Term order is preserved;
backfitting visits terms in source order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .exceptions import FormulaError

SMOOTH = "smooth"
LINEAR = "linear"

# Letters, digits, underscore and dot; no leading digit.
_IDENT_RE = re.compile(r"[A-Za-z_.][A-Za-z0-9_.]*")


@dataclass(frozen=True)
class Term:
    name: str
    kind: str  # SMOOTH or LINEAR

    def __post_init__(self):
        if self.kind not in (SMOOTH, LINEAR):
            raise ValueError(f"unknown term kind {self.kind!r}")


@dataclass(frozen=True)
class Formula:
    """Parsed model formula: a response identifier plus ordered terms."""

    response: str
    terms: tuple[Term, ...]

    def __post_init__(self):
        if not self.terms:
            raise FormulaError("formula has no terms")
        names = [t.name for t in self.terms]
        for k, name in enumerate(names):
            if name in names[:k]:
                raise FormulaError(f"duplicate term {name!r}")
        if self.response in names:
            raise FormulaError(f"response {self.response!r} also appears as a term")

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)

    def __str__(self) -> str:
        return format_formula(self)


def _skip_ws(src: str, i: int) -> int:
    while i < len(src) and src[i].isspace():
        i += 1
    return i


def _read_ident(src: str, i: int, what: str) -> tuple[str, int]:
    i = _skip_ws(src, i)
    m = _IDENT_RE.match(src, i)
    if not m:
        if i < len(src) and (src[i].isalnum() or src[i] in "_."):
            raise FormulaError(f"illegal {what} identifier", i)
        raise FormulaError(f"expected {what} identifier", i)
    end = m.end()
    # reject things like "1x" being split into "1" + "x"
    if end < len(src) and (src[end].isalnum() or src[end] in "_."):
        raise FormulaError(f"illegal {what} identifier", i)
    return m.group(0), end


def parse_formula(src: str) -> Formula:
    """Parse a formula string into a :class:`Formula`.

    Raises :class:`FormulaError` with a character position on any syntax
    problem: missing ``~``, empty or duplicate terms, unclosed ``s(``,
    or identifiers with illegal characters.
    """
    if not src or not src.strip():
        raise FormulaError("empty formula", 0)
    tilde = src.find("~")
    if tilde < 0:
        raise FormulaError("formula must contain '~'", len(src))
    if src.find("~", tilde + 1) >= 0:
        raise FormulaError("formula must contain exactly one '~'",
                           src.find("~", tilde + 1))

    response, i = _read_ident(src[:tilde], 0, "response")
    i = _skip_ws(src[:tilde], i)
    if i != tilde:
        raise FormulaError("unexpected text after response", i)

    terms: list[Term] = []
    i = tilde + 1
    while True:
        i = _skip_ws(src, i)
        if i >= len(src) or src[i] == "+":
            raise FormulaError("empty term", i)
        name, i = _read_ident(src, i, "term")
        i = _skip_ws(src, i)
        if name == "s" and i < len(src) and src[i] == "(":
            arg, i = _read_ident(src, i + 1, "smooth-term")
            i = _skip_ws(src, i)
            if i >= len(src) or src[i] != ")":
                raise FormulaError("unclosed 's(' in formula", i)
            i += 1
            terms.append(Term(arg, SMOOTH))
        else:
            terms.append(Term(name, LINEAR))
        i = _skip_ws(src, i)
        if i >= len(src):
            break
        if src[i] != "+":
            raise FormulaError(f"expected '+' between terms, got {src[i]!r}", i)
        i += 1

    return Formula(response, tuple(terms))


def format_formula(f: Formula) -> str:
    """Render a formula canonically so that parse(format(f)) == f."""
    parts = [f"s({t.name})" if t.kind == SMOOTH else t.name for t in f.terms]
    return f"{f.response} ~ " + " + ".join(parts)
