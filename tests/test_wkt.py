"""POLYGON reader/writer: grammar conformance, byte-offset error reporting,
round trips, the derived area helper, and the fast path read against the
token path."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraseg import wkt
from terraseg.errors import WktParseError
from terraseg.wkt import WktGeometry, parse_wkt, to_wkt

UNIT_SQUARE = "POLYGON((0 0, 1 0, 1 1, 0 1, 0 0))"

# the footprint used by the catalog examples: a lon/lat box over the
# central Balkans
REGION = ("POLYGON((16.58910503349143 43.400842665330345, "
          "26.95841113834191 43.400842665330345, "
          "26.95841113834191 49.09541206485471, "
          "16.58910503349143 49.09541206485471, "
          "16.58910503349143 43.400842665330345))")


class TestParsing:
    def test_unit_square(self):
        geom = parse_wkt(UNIT_SQUARE)
        assert geom.kind == "POLYGON"
        assert len(geom.rings) == 1
        assert geom.rings[0] == ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))

    def test_region_box(self):
        geom = parse_wkt(REGION)
        assert len(geom.rings) == 1
        assert len(geom.rings[0]) == 5
        assert geom.rings[0][0] == geom.rings[0][-1]
        assert geom.rings[0][0] == (16.58910503349143, 43.400842665330345)

    def test_whitespace_insensitive(self):
        spaced = "  POLYGON ( ( 0 0 ,1   0, 1 1 , 0 1,0 0 ) )  "
        assert parse_wkt(spaced) == parse_wkt(UNIT_SQUARE)

    def test_negative_and_scientific_numbers(self):
        geom = parse_wkt("POLYGON((-1.5 -2, 1e2 -2, 1e2 3.25E1, -1.5 3.25E1, -1.5 -2))")
        assert geom.rings[0][1] == (100.0, -2.0)
        assert geom.rings[0][2][1] == 32.5

    def test_numbers_not_set_apart_by_whitespace(self):
        # a sign or a second '.' ends a number, as a space would
        geom = parse_wkt("POLYGON((0 0,4-1 ,4+4, .5.5,0\t0))")
        assert geom.rings[0] == ((0, 0), (4, -1), (4, 4), (0.5, 0.5), (0, 0))

    def test_polygon_with_hole(self):
        geom = parse_wkt("POLYGON((0 0, 4 0, 4 4, 0 4, 0 0), "
                         "(1 1, 2 1, 2 2, 1 2, 1 1))")
        assert len(geom.rings) == 2
        assert len(geom.rings[1]) == 5


class TestErrors:
    def test_unsupported_keyword(self):
        with pytest.raises(WktParseError, match="POINT"):
            parse_wkt("POINT(1 2)")

    def test_missing_keyword_offset_zero(self):
        with pytest.raises(WktParseError) as err:
            parse_wkt("((0 0, 1 0, 1 1, 0 0))")
        assert err.value.offset == 0

    def test_unclosed_ring_reports_ring_start(self):
        with pytest.raises(WktParseError, match="not closed") as err:
            parse_wkt("POLYGON((0 0, 1 0, 1 1, 0 1))")
        assert err.value.offset == 8

    def test_too_few_vertices(self):
        with pytest.raises(WktParseError, match="need at least 4"):
            parse_wkt("POLYGON((0 0, 1 0, 0 0))")

    def test_trailing_characters(self):
        with pytest.raises(WktParseError, match="trailing") as err:
            parse_wkt(UNIT_SQUARE + " leftover")
        assert err.value.offset == len(UNIT_SQUARE) + 1

    def test_expected_number(self):
        with pytest.raises(WktParseError, match="number"):
            parse_wkt("POLYGON((0 0, 1 x, 1 1, 0 0))")

    @pytest.mark.parametrize("text, message, offset", [
        ("POLYGON((0 0, 1 0x, 1 1, 0 0))", "expected ')'", 17),
        ("POLYGON((0 0, 1 0 2, 1 1, 0 0))", "expected ')'", 18),
        ("POLYGON((0 0, 1 0, 1e, 0 0))", "expected a number", 20),
        ("POLYGON((0 0, 1 0,, 1 1, 0 0))", "expected a number", 18),
        ("POLYGON((0 0, 1 0, 1 1, 0 0, ))", "expected a number", 29),
    ])
    def test_errors_after_whole_points(self, text, message, offset):
        with pytest.raises(WktParseError, match=re.escape(message)) as err:
            parse_wkt(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text, number, offset", [
        ("POLYGON((0 0, 1e999 0, 0 1, 0 0))", "1e999", 14),
        ("POLYGON((0 0, 1 -1e999, 0 1, 0 0))", "-1e999", 16),
        ("POLYGON((1e999 0, 1 0, 0 1, 0 0))", "1e999", 9),
        ("POLYGON((0 0,1 0,0 1,0 0),(0 0,2 1E400,0 1,0 0))", "1E400", 33),
    ])
    def test_number_overflowing_a_float(self, text, number, offset):
        with pytest.raises(WktParseError, match=re.escape(f"number {number} overflows")) as err:
            parse_wkt(text)
        assert err.value.offset == offset

    def test_missing_paren(self):
        with pytest.raises(WktParseError, match=r"expected '\('"):
            parse_wkt("POLYGON 0 0, 1 0, 1 1, 0 0")

    def test_offset_counts_bytes_not_chars(self):
        # two-byte character in a comment-like prefix shifts byte offsets
        with pytest.raises(WktParseError) as err:
            parse_wkt("éPOLYGON((0 0, 1 0, 1 1, 0 0))")
        assert err.value.offset == 0
        with pytest.raises(WktParseError) as err2:
            parse_wkt("POLYGON(é)")
        assert err2.value.offset == 8  # the 'é' itself sits at byte 8


class TestRoundTrip:
    def test_unit_square_exact(self):
        geom = parse_wkt(UNIT_SQUARE)
        assert parse_wkt(to_wkt(geom)) == geom

    def test_region_precision_preserved(self):
        geom = parse_wkt(REGION)
        again = parse_wkt(to_wkt(geom))
        assert again.rings == geom.rings  # repr round trip keeps every bit

    @given(st.lists(st.tuples(
        st.floats(-180, 180, allow_nan=False, width=64),
        st.floats(-90, 90, allow_nan=False, width=64)),
        min_size=3, max_size=8, unique=True))
    @settings(max_examples=60)
    def test_any_closed_ring_round_trips(self, pts):
        ring = tuple(pts) + (pts[0],)
        geom = WktGeometry("POLYGON", (ring,))
        assert parse_wkt(to_wkt(geom)).rings == geom.rings


def outcome(parse, text):
    """What ``parse`` makes of ``text``: the geometry's repr (which tells
    -0.0 from 0.0), or the parse error's message and offset."""
    try:
        return repr(parse(text))
    except WktParseError as exc:
        return str(exc), exc.offset


@st.composite
def polygon_texts(draw):
    """Valid POLYGON texts in the spellings real files use: integers, reprs,
    exponents, signs, bare points, and assorted whitespace."""
    number = st.one_of(
        st.integers(-10**6, 10**6).map(str),
        st.floats(-1e6, 1e6, allow_nan=False).map(repr),
        st.tuples(st.sampled_from(["", "+", "-"]), st.sampled_from(["1", "2.", ".5", "30.25"]),
                  st.sampled_from(["", "e3", "E-2", "e+1"])).map("".join))
    space = st.sampled_from([" ", "  ", "\t", "\n", " \n "])
    comma = st.sampled_from([",", ", ", " , ", ",\n"])
    rings = []
    for _ in range(draw(st.integers(1, 3))):
        points = draw(st.lists(st.tuples(number, number), min_size=3, max_size=6))
        items = [x + draw(space) + y for x, y in points + points[:1]]
        rings.append("(" + draw(comma).join(items) + ")")
    return (draw(st.sampled_from(["", " "])) + "POLYGON" + draw(st.sampled_from(["", " "]))
            + "(" + draw(comma).join(rings) + ")" + draw(st.sampled_from(["", " ", "\n"])))


# characters the grammar uses, and ones either path must refuse or treat
# as Unicode does: a no-break space and U+001C are whitespace, '٣' a digit
MUTATION_CHARS = "0123456789.+-eE, \t\n()POLYGNX_ié\u00a0\x1c\u0663"


@st.composite
def mutated_polygon_texts(draw):
    text = draw(polygon_texts())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        char = "" if op == "delete" else draw(st.sampled_from(MUTATION_CHARS))
        text = text[:i] + char + text[i + (op != "insert"):]
    return text


class TestFastPath:
    """parse_wkt reads a whole well-formed polygon in one pass and gives way
    to the token path on any doubt: either way it returns what the token
    path returns, and raises its message at its offset."""

    @given(polygon_texts())
    @settings(derandomize=True)
    def test_valid_polygons_take_the_fast_path(self, text):
        fast = wkt._parse_polygon(text)
        assert fast is not None and repr(fast) == repr(wkt._parse_tokens(text))

    @given(mutated_polygon_texts())
    @settings(max_examples=max(settings.default.max_examples, 300), derandomize=True)
    def test_mutated_polygons_read_as_the_token_path_reads_them(self, text):
        assert outcome(parse_wkt, text) == outcome(wkt._parse_tokens, text)

    @pytest.mark.parametrize("text, fast, want", [
        ("POLYGON((0 0, nan 0, 1 1, 0 0))", False, ("expected a number", 14)),
        ("POLYGON((0 0, inf 0, 1 1, 0 0))", False, ("expected a number", 14)),
        ("POLYGON((0 0, 1_0 0, 1 1, 0 0))", False, ("expected a number", 15)),
        ("POLYGON((0 0, 1e999 0, 1 1, 0 0))", False, ("number 1e999 overflows a float", 14)),
        ("POLYGON((0 0, 1 -1E999, 1 1, 0 0))", False, ("number -1E999 overflows a float", 16)),
        ("POLYGON((0 0, 1.0.5, 1 1, 0 0))", False, ((0, 0), (1, 0.5), (1, 1), (0, 0))),
        ("POLYGON((0 0, 1 0, 1 1, 0 1))", False, ("ring is not closed", 8)),
        ("POLYGON((0 0, 1 0, 0 0))", False, ("ring has 3 vertices, need at least 4", 8)),
        ("POLYGON((0 0, 1 0, 1 1, 0 0),())", False, ("expected a number", 30)),
        ("POLYGON((0 0, 1 0 0, 1 1, 0 0))", False, ("expected ')'", 18)),
        ("POLYGON((0\t0,\n1 0,\t1\n1,\r\n0 0))\n", True, ((0, 0), (1, 0), (1, 1), (0, 0))),
        ("POLYGON((0\u00a00, 1 0, 1 1, 0 0))", True, ((0, 0), (1, 0), (1, 1), (0, 0))),
        ("POLYGON((0 0, \u0663 0, 1 1, 0 0))", False, ((0, 0), (3, 0), (1, 1), (0, 0))),
        ("POLYGON((1e308 1e308, 1e308 0, 0 1, 1e308 1e308))", False,
         ((1e308, 1e308), (1e308, 0), (0, 1), (1e308, 1e308))),
        ("POLYGON((-0 0, 1 0, 1 1, -0 0))", True, ((-0.0, 0), (1, 0), (1, 1), (-0.0, 0))),
    ])
    def test_edge_cases(self, text, fast, want):
        assert (wkt._parse_polygon(text) is not None) == fast
        assert outcome(parse_wkt, text) == outcome(wkt._parse_tokens, text)
        if isinstance(want[1], int):
            message, offset = want
            with pytest.raises(WktParseError, match=re.escape(message)) as err:
                parse_wkt(text)
            assert err.value.offset == offset
        else:
            assert parse_wkt(text).rings[0] == want

    def test_every_ring_of_a_multi_ring_polygon(self):
        text = ("POLYGON((0 0, 8 0, 8 8, 0 8, 0 0), (1 1, 2 1, 2 2, 1 1),"
                "\n(4 4, 5e0 4, 5 +5, .4e1 4))")
        geom = wkt._parse_polygon(text)
        assert geom == wkt._parse_tokens(text) == parse_wkt(text)
        assert [len(r) for r in geom.rings] == [5, 4, 4]
        assert geom.rings[2] == ((4, 4), (5, 4), (5, 5), (4, 4))
