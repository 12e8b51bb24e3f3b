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
_RESPONSE_RE = re.compile(rf"\s*({_IDENT_RE.pattern})\s*")
# s(name) is a smooth term (group 1), a bare name a linear one (group 2)
_TERM_RE = re.compile(rf"\s*(?:s\s*\(\s*({_IDENT_RE.pattern})\s*\)|({_IDENT_RE.pattern}))\s*")


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


def _fullmatch(pattern: re.Pattern, piece: str, start: int, what: str) -> re.Match:
    m = pattern.fullmatch(piece)
    if m is None:
        raise FormulaError(f"malformed {what} {piece.strip()!r}", start)
    return m


def parse_formula(src: str) -> Formula:
    """Parse a formula string into a :class:`Formula`.

    The text splits on ``~`` and the terms on ``+``; a piece that is not
    a name (or, for a term, ``s(name)``) raises :class:`FormulaError`
    naming it, positioned at its first character, and so does anything
    that is not a ``str``.
    """
    if not isinstance(src, str):
        raise FormulaError(f"a formula is text, got {type(src).__name__} {src!r}")
    sides = src.split("~")
    if len(sides) != 2:
        # the end of the text when '~' is missing, else the second '~'
        raise FormulaError("formula must contain exactly one '~'", len("~".join(sides[:2])))
    response = _fullmatch(_RESPONSE_RE, sides[0], 0, "response")[1]
    terms = []
    start = len(sides[0]) + 1
    for piece in sides[1].split("+"):
        m = _fullmatch(_TERM_RE, piece, start, "term")
        terms.append(Term(m[1], SMOOTH) if m[1] else Term(m[2], LINEAR))
        start += len(piece) + 1
    return Formula(response, tuple(terms))


def format_formula(f: Formula) -> str:
    """Render a formula canonically so that parse(format(f)) == f."""
    parts = [f"s({t.name})" if t.kind == SMOOTH else t.name for t in f.terms]
    return f"{f.response} ~ " + " + ".join(parts)
