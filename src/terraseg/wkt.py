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
# a point whose numbers are set apart by whitespace and which ends at
# whitespace, ',' or ')', with the ',' that follows it if one does: where it
# matches, it reads what the token path (two ``_Scanner.number`` calls, then
# ``peek``/``expect``) reads
_POINT = re.compile(rf"\s*({_NUMBER.pattern})\s+({_NUMBER.pattern})(?=[\s,)])\s*(,?)")


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
    points = []
    while True:
        m = _POINT.match(sc.text, sc.pos)
        x, y = (float(m[1]), float(m[2])) if m else (math.nan, math.nan)
        if math.isfinite(x) and math.isfinite(y):
            sc.pos = m.end()
            points.append((x, y))
            if not m[3]:
                break
        else:  # the token path, which also places every parse error
            points.append((sc.number(), sc.number()))
            if sc.peek() != ",":
                break
            sc.expect(",")
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
