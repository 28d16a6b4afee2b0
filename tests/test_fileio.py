"""cli-io file format: parsing, validation, aliases, canonical serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbdsys import (
    ParseError,
    ValidationError,
    parse_system_text,
    serialize_system,
)
from cbdsys.fileio import dumps_canonical, format_float
from helpers import dumps_canonical_reference, random_small_system

RANK2_DOC = """
{
  "contents": [{"id": "A", "label": "first question"}, {"id": "B"}],
  "contexts": [
    {"id": "AB", "contents": ["A", "B"], "probs": [0.1, 0.4, 0.2, 0.3]},
    {"id": "BA", "contents": ["A", "B"], "probs": [0.3, 0.2, 0.4, 0.1]}
  ]
}
"""


class TestParse:
    def test_wellformed_rank2(self):
        system = parse_system_text(RANK2_DOC)
        assert len(system.contexts) == 2
        assert system.bunch("AB").probs == (0.1, 0.4, 0.2, 0.3)
        assert system.contents[0].label == "first question"

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_system_text("{not json")

    @pytest.mark.parametrize("text", [
        "[" * 100_000,  # json.loads raises RecursionError this deep
        '{"contents": [], "contexts": [], "x": 1' + "0" * 5000 + "}",
    ], ids=["deep_nesting", "5001_digit_integer"])
    def test_unparseable_json_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_system_text(text)

    def test_integer_too_large_for_a_float(self):
        doc = json.loads(RANK2_DOC)
        doc["contexts"][0]["probs"][0] = 10**400
        with pytest.raises(ParseError, match="too large for a float"):
            parse_system_text(json.dumps(doc))

    def test_missing_sections(self):
        with pytest.raises(ParseError):
            parse_system_text('{"contents": []}')

    def test_sum_off_by_more_than_tolerance(self):
        doc = json.loads(RANK2_DOC)
        doc["contexts"][0]["probs"] = [0.1000001, 0.4, 0.2, 0.3]
        with pytest.raises(ValidationError) as err:
            parse_system_text(json.dumps(doc))
        assert any("sums to" in v for v in err.value.violations)

    def test_all_violations_listed(self):
        doc = json.loads(RANK2_DOC)
        doc["contexts"][0]["probs"] = [-0.2, 0.6, 0.3, 0.3]
        doc["contexts"][1]["contents"] = ["A", "ghost"]
        with pytest.raises(ValidationError) as err:
            parse_system_text(json.dumps(doc))
        assert len(err.value.violations) >= 2

    def test_wrong_probs_length(self):
        doc = json.loads(RANK2_DOC)
        doc["contexts"][0]["probs"] = [0.5, 0.5]
        with pytest.raises(ValidationError) as err:
            parse_system_text(json.dumps(doc))
        assert any("expected 4" in v for v in err.value.violations)

    def test_outcome_map_equivalent_to_dense_vector(self):
        doc = json.loads(RANK2_DOC)
        doc["contexts"][0]["probs"] = {
            "No,No": 0.1, "Yes,No": 0.4, "No,Yes": 0.2, "Yes,Yes": 0.3,
        }
        assert parse_system_text(json.dumps(doc)) == parse_system_text(RANK2_DOC)

    def test_outcome_map_omitted_entries_are_zero(self):
        doc = json.loads(RANK2_DOC)
        doc["contexts"][0]["probs"] = {"Yes,Yes": 0.5, "No,No": 0.5}
        system = parse_system_text(json.dumps(doc))
        assert system.bunch("AB").probs == (0.5, 0.0, 0.0, 0.5)

    def test_custom_value_aliases(self):
        doc = json.loads(RANK2_DOC)
        doc["values"] = {"Agree": 1, "Disagree": -1}
        doc["contexts"][0]["probs"] = {
            "Disagree,Disagree": 0.1, "Agree,Disagree": 0.4,
            "Disagree,Agree": 0.2, "Agree,Agree": 0.3,
        }
        assert parse_system_text(json.dumps(doc)) == parse_system_text(RANK2_DOC)

    def test_nonbinary_alias_is_hard_error(self):
        doc = json.loads(RANK2_DOC)
        doc["values"] = {"Maybe": 0}
        with pytest.raises(ParseError) as err:
            parse_system_text(json.dumps(doc))
        assert "binary" in str(err.value)

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_alias_is_hard_error(self, value):
        # JSON true equals 1 in Python, but it is not an outcome value.
        doc = json.loads(RANK2_DOC)
        doc["values"] = {"Agree": value}
        with pytest.raises(ParseError, match="binary"):
            parse_system_text(json.dumps(doc))

    def test_unknown_label_rejected(self):
        doc = json.loads(RANK2_DOC)
        doc["contexts"][0]["probs"] = {"Yep,Nope": 1.0}
        with pytest.raises(ParseError):
            parse_system_text(json.dumps(doc))

    def test_duplicate_outcome_rejected(self):
        doc = json.loads(RANK2_DOC)
        doc["contexts"][0]["probs"] = {"Yes,Yes": 0.5, "+1,+1": 0.5}
        with pytest.raises(ParseError):
            parse_system_text(json.dumps(doc))


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        system = parse_system_text(RANK2_DOC)
        assert parse_system_text(serialize_system(system)) == system

    def test_serialization_is_byte_stable(self):
        # Dirichlet draws often sum to an ulp or two off one; a load that
        # renormalized them would move their last bits on every parse.
        rng = np.random.default_rng(1)
        systems = [parse_system_text(RANK2_DOC)]
        systems += [random_small_system(rng, 12) for _ in range(2000)]
        for system in systems:
            once = serialize_system(system)
            assert serialize_system(parse_system_text(once)) == once

    def test_probs_order_preserved(self):
        system = parse_system_text(RANK2_DOC)
        doc = json.loads(serialize_system(system))
        assert doc["contexts"][0]["probs"] == [0.1, 0.4, 0.2, 0.3]

    def test_double_slit_round_trip(self):
        from cbdsys import DoubleSlitParams, build_double_slit

        system = build_double_slit(DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05))
        assert parse_system_text(serialize_system(system)) == system


class TestCanonicalJson:
    def test_float_formatting_has_17_significant_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(0.0) == "0"
        assert format_float(-0.0) == "0"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_float_round_trip_lossless(self, x):
        assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_deterministic_document(self):
        doc = {"b": [1, 2.5, True, None], "a": {"nested": "x"}}
        assert dumps_canonical(doc) == dumps_canonical(doc)
        # insertion order preserved, not sorted
        assert dumps_canonical(doc).index('"b"') < dumps_canonical(doc).index('"a"')


#: Strings that escaping must get right: quotes, backslashes, control
#: characters, line separators, non-ASCII, astral and lone surrogates.
_TRICKY = ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "\u2028", "é", "日本", "\U0001f600", "\ud800"]
_STRINGS = st.text() | st.sampled_from(_TRICKY)
_FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1])
)
_LEAVES = (
    _STRINGS
    | _FLOATS
    | _FLOATS.map(np.float64)
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.booleans()
    | st.none()
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_STRINGS, children, max_size=4)
    ),
    max_leaves=30,
)


class TestWriterMatchesReference:
    """dumps_canonical writes the bytes of the recursive writer it replaced
    (tests/helpers.py:dumps_canonical_reference)."""

    @given(_DOCUMENTS)
    @settings(max_examples=400, deadline=None)
    def test_same_bytes(self, doc):
        # Wrapping adds four levels, so every document is at least that deep.
        for wrapped in (doc, [{"k": ({"\u00e9": [doc, {}, []]},)}]):
            assert dumps_canonical(wrapped) == dumps_canonical_reference(wrapped)

    def test_empty_containers_and_scalars(self):
        for doc in ({}, [], (), "", 0, -0.0, True, False, None, {"": [(), {}]}):
            assert dumps_canonical(doc) == dumps_canonical_reference(doc)

    @pytest.mark.parametrize("bad", [
        {1: 2},
        {"a": {(1, 2): "x"}},
        float("nan"),
        float("inf"),
        -float("inf"),
        [1.0, {"x": np.float64("nan")}],
        {1, 2},
        b"bytes",
        [{"nested": bytearray(b"x")}],
    ], ids=["int_key", "tuple_key", "nan", "inf", "minus_inf", "numpy_nan",
            "set", "bytes", "nested_bytearray"])
    def test_same_exception(self, bad):
        with pytest.raises(Exception) as reference:
            dumps_canonical_reference(bad)
        with pytest.raises(Exception) as written:
            dumps_canonical(bad)
        assert type(written.value) is type(reference.value)
        assert str(written.value) == str(reference.value)
