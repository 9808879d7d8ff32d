"""A small WKT reader/writer covering the POLYGON subset.

Grammar accepted (case-sensitive keyword, arbitrary whitespace between
tokens):

    polygon := "POLYGON" "(" ring { "," ring } ")"
    ring    := "(" point { "," point } ")"
    point   := number number

Rings must repeat their first vertex last (closed) and contain at least four
vertices including the closure. A number too large for a float (``1e999``)
is rejected, not read as infinity. Parse failures raise WktParseError
carrying the byte offset of the offending character.

Two readers give one result. The fast path takes a whole polygon in one
``fullmatch`` whose every ring holds points of two whitespace-separated
runs of ASCII digits, ``.``, signs and ``e``/``E``, set apart by ``,``; it
splits each ring on ``,`` and on whitespace and reads each token with
``float``. Over those characters ``float`` accepts exactly the strings
``_NUMBER`` matches, and ``str.split()`` splits on exactly what ``\\s``
matches, so it reads the values the token path reads. On any doubt (text
the ``fullmatch`` refuses, a token ``float`` refuses, a value that is not
finite, a ring of fewer than 4 vertices or not closed) it gives way to the
token path, a scanner over the grammar above, which reads the text again
and places every error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import WktParseError

__all__ = ["WktGeometry", "parse_wkt", "to_wkt"]

_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_KEYWORD = re.compile(r"[A-Za-z]+")
_SPACE = re.compile(r"\s*")  # \s is exactly what str.isspace() accepts
# the fast path's input: a whole POLYGON whose every ring is "(x y, ..., x y)",
# each x and y a run of the characters numbers are made of
_COORD = r"[0-9.+\-eE]+"
_RING = rf"\(\s*{_COORD}\s+{_COORD}(?:\s*,\s*{_COORD}\s+{_COORD})*\s*\)"
_POLYGON = re.compile(rf"\s*POLYGON\s*\(\s*{_RING}(?:\s*,\s*{_RING})*\s*\)\s*")


@dataclass(frozen=True)
class WktGeometry:
    kind: str
    rings: tuple[tuple[tuple[float, float], ...], ...]


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def byte_offset(self, pos: int | None = None) -> int:
        p = self.pos if pos is None else pos
        return len(self.text[:p].encode("utf-8"))

    def skip_ws(self) -> None:
        self.pos = _SPACE.match(self.text, self.pos).end()

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise WktParseError(f"expected {char!r}", self.byte_offset())
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise WktParseError("expected a number", self.byte_offset())
        value = float(m.group())
        if not math.isfinite(value):
            raise WktParseError(f"number {m.group()} overflows a float", self.byte_offset())
        self.pos = m.end()
        return value


def parse_wkt(text: str) -> WktGeometry:
    return _parse_polygon(text) or _parse_tokens(text)


def _parse_polygon(text: str) -> WktGeometry | None:
    """The fast path: the polygon, or None where the token path must decide."""
    if not _POLYGON.fullmatch(text):
        return None
    rings = []
    for body in text.split("(")[2:]:  # each ring's "x y, ..., x y)" and what follows
        try:
            v = list(map(float, body[: body.index(")")].replace(",", " ").split()))
        except ValueError:
            return None
        if len(v) < 8 or v[:2] != v[-2:] or not math.isfinite(sum(v)):
            return None  # (a sum of finite values that overflows goes there too)
        rings.append(tuple(zip(v[::2], v[1::2])))
    return WktGeometry("POLYGON", tuple(rings))


def _parse_tokens(text: str) -> WktGeometry:
    """The token path, which reads any text and places every parse error."""
    sc = _Scanner(text)
    sc.skip_ws()
    m = _KEYWORD.match(sc.text, sc.pos)
    if not m:
        raise WktParseError("expected a geometry keyword", sc.byte_offset())
    kind = m.group()
    if kind != "POLYGON":
        raise WktParseError(f"unsupported geometry kind {kind!r}", sc.byte_offset())
    sc.pos = m.end()
    sc.expect("(")
    rings = [_ring(sc)]
    while sc.peek() == ",":
        sc.expect(",")
        rings.append(_ring(sc))
    sc.expect(")")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise WktParseError("trailing characters after geometry", sc.byte_offset())
    return WktGeometry("POLYGON", tuple(rings))


def _ring(sc: _Scanner) -> tuple[tuple[float, float], ...]:
    sc.skip_ws()
    start = sc.byte_offset()
    sc.expect("(")
    points = [(sc.number(), sc.number())]
    while sc.peek() == ",":
        sc.expect(",")
        points.append((sc.number(), sc.number()))
    sc.expect(")")
    if len(points) < 4:
        raise WktParseError(f"ring has {len(points)} vertices, need at least 4", start)
    if points[0] != points[-1]:
        raise WktParseError("ring is not closed (first vertex != last)", start)
    return tuple(points)


def to_wkt(geom: WktGeometry) -> str:
    """Serialize with shortest round-trip float formatting."""
    rings = ", ".join(
        "(" + ", ".join(f"{_num(x)} {_num(y)}" for x, y in ring) + ")"
        for ring in geom.rings
    )
    return f"{geom.kind}({rings})"


def _num(v: float) -> str:
    return repr(float(v))
