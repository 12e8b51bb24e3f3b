import pytest
from hypothesis import given
from hypothesis import strategies as st

from gannet.exceptions import FormulaError
from gannet.formula import LINEAR, SMOOTH, Formula, Term, format_formula, parse_formula


class TestParse:
    def test_three_smooth_terms(self):
        f = parse_formula("y ~ s(x1) + s(x2) + s(x3)")
        assert f.response == "y"
        assert f.term_names == ("x1", "x2", "x3")
        assert all(t.kind == SMOOTH for t in f.terms)

    def test_minimal_linear(self):
        f = parse_formula("y ~ x")
        assert f.response == "y"
        assert f.terms == (Term("x", LINEAR),)

    def test_four_smooth_terms_with_underscores(self):
        f = parse_formula("delay ~ s(air_time) + s(dep_delay) + s(temp) + s(humid)")
        assert f.response == "delay"
        assert f.term_names == ("air_time", "dep_delay", "temp", "humid")
        assert all(t.kind == SMOOTH for t in f.terms)

    def test_mixed_terms_preserve_order(self):
        f = parse_formula("y ~ x + s(z) + s(w)")
        assert [(t.name, t.kind) for t in f.terms] == [
            ("x", LINEAR),
            ("z", SMOOTH),
            ("w", SMOOTH),
        ]

    def test_whitespace_tolerated(self):
        f = parse_formula("  y~s( x1 )+ x2 ")
        assert f.term_names == ("x1", "x2")
        assert f.terms[0].kind == SMOOTH

    def test_dotted_identifiers(self):
        f = parse_formula("out.come ~ s(a.b) + c_d")
        assert f.response == "out.come"
        assert f.term_names == ("a.b", "c_d")


class TestParseErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "y s(x)",           # missing ~
            "y ~ x ~ z",        # two tildes
            "y ~",              # empty right side
            "y ~ x +",          # trailing +
            "y ~ x + + z",      # empty term
            "y ~ s(x) + s(x)",  # duplicate
            "y ~ x + x",        # duplicate linear
            "y ~ s(x",          # unclosed paren
            "y ~ s()",          # empty argument
            "y ~ 1x",           # identifier starts with digit
            "y ~ x-z",          # illegal character
            "y ~ s(x) y",       # junk between terms
            "~ x",              # missing response
            "y ~ y",            # response reused as term
            "",                 # empty
            "   ",              # blank
            5,                  # not text
            b"y ~ x",           # bytes, not text
        ],
    )
    def test_rejected(self, src):
        with pytest.raises(FormulaError):
            parse_formula(src)

    def test_error_carries_position(self):
        with pytest.raises(FormulaError) as exc:
            parse_formula("y ~ s(x")
        assert exc.value.position is not None
        assert "position" in str(exc.value)
        # a malformed piece is named and positioned at its first character
        for src, position, piece in [
            ("y ~ x + s(z", 7, "s(z"),
            ("y ~ 1x", 3, "1x"),
            ("y(1) ~ x", 0, "y(1)"),
        ]:
            with pytest.raises(FormulaError) as exc:
                parse_formula(src)
            assert exc.value.position == position
            assert repr(piece) in str(exc.value)
        # a missing '~' is placed at the end of the text, a second one where it stands
        for src, position in [("y s(x)", 6), ("y ~ x ~ z", 6)]:
            with pytest.raises(FormulaError) as exc:
                parse_formula(src)
            assert exc.value.position == position


class TestFormat:
    def test_single_smooth(self):
        f = Formula("y", (Term("x1", SMOOTH),))
        assert format_formula(f) == "y ~ s(x1)"

    def test_mixed(self):
        f = Formula("y", (Term("x2", LINEAR), Term("w", SMOOTH)))
        assert format_formula(f) == "y ~ x2 + s(w)"


@given(st.text(max_size=40))
def test_parsing_is_total(src):
    # any input yields a Formula or a FormulaError, never another exception
    try:
        parse_formula(src)
    except FormulaError:
        pass


_ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,8}", fullmatch=True)


@given(
    names=st.lists(_ident, min_size=2, max_size=6, unique=True),
    kinds=st.lists(st.sampled_from([SMOOTH, LINEAR]), min_size=1, max_size=5),
)
def test_roundtrip_property(names, kinds):
    response, *term_names = names
    terms = tuple(
        Term(name, kinds[i % len(kinds)]) for i, name in enumerate(term_names)
    )
    f = Formula(response, terms)
    assert parse_formula(format_formula(f)) == f
