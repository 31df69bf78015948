"""Config loading and validation."""

import re
import sys
from fractions import Fraction

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from ncresidue.config import SessionConfig, load_config
from ncresidue.errors import (
    EngineError,
    NonIncreasingTriple,
    OddBarDimension,
    ParseError,
    UnsupportedDimension,
    ValidationError,
)
from ncresidue.geometry import GeometricBundle


class TestSessionConfig:
    def test_defaults(self):
        cfg = SessionConfig(nbar=2)
        assert cfg.mode == "oracle"
        assert cfg.fmt == "text"
        assert cfg.cases == ("aI", "aII", "aIII", "b", "c")
        assert cfg.seed == 0 and cfg.verify_lemmas == 0

    def test_case_aliases(self):
        cfg = SessionConfig(nbar=2, cases=["a1", "a3", "b"])
        assert cfg.cases == ("aI", "aIII", "b")

    def test_all_alias_and_dedup(self):
        cfg = SessionConfig(nbar=2, cases=["b", "all"])
        assert set(cfg.cases) == {"aI", "aII", "aIII", "b", "c"}

    def test_dimension_validation(self):
        with pytest.raises(OddBarDimension):
            SessionConfig(nbar=3)
        with pytest.raises(UnsupportedDimension):
            SessionConfig(nbar=12)
        with pytest.raises(ValidationError):
            SessionConfig(nbar="2")

    def test_unknown_case(self):
        with pytest.raises(ValidationError):
            SessionConfig(nbar=2, cases=["z"])

    @pytest.mark.parametrize(
        "scalars, named",
        [({"S": 1}, "'S'"), ({"s": 1, "hprime": 2}, "'hprime'"), ([("s", 1)], "mapping"),
         ({1: 2}, "1")],
        ids=["wrong_case", "unknown_name", "not_a_mapping", "not_a_string"],
    )
    def test_bad_scalars_rejected(self, scalars, named):
        # a misspelt name must not leave its scalar silently symbolic
        with pytest.raises(ValidationError) as exc:
            SessionConfig(2, scalars=scalars)
        assert exc.value.field == "scalars" and named in str(exc.value)

    def test_bundle_dimension(self):
        cfg = SessionConfig(nbar=4, scalars={"s": 3, "dimF": "1/2"})
        geo = cfg.bundle()
        assert geo.n == 6
        assert geo.assignment()["s"] == Fraction(3)
        assert geo.assignment()["dimF"] == Fraction(1, 2)

    def test_bundle_built_once(self):
        cfg = SessionConfig(nbar=2, scalars={"s": "1/2"}, torsion=[[1, 2, 3, 1]])
        assert cfg.bundle() is cfg.bundle()
        # the shared bundle's data cannot drift from what as_dict renders
        with pytest.raises(TypeError):
            cfg.bundle().torsion[(1, 2, 3)] = 5
        assert cfg.as_dict()["torsion"] == [[1, 2, 3, "1"]]

    def test_unrenderable_int_is_refused(self):
        # as_dict() would have raised ValueError past the int-string limit
        with pytest.raises(ValidationError) as exc:
            SessionConfig(2, X=[LONG, 1, 1, 1])
        assert exc.value.field == "X[0]"


class TestLoadConfig:
    def test_minimal_inline(self):
        cfg = load_config("nbar: 2")
        assert cfg.nbar == 2
        assert cfg.bundle().assignment() == {}

    def test_dim_synonym_and_single_case(self):
        cfg = load_config("dim: 4\ncase: a2\nformat: json")
        assert cfg.nbar == 4
        assert cfg.cases == ("aII",)
        assert cfg.fmt == "json"

    @pytest.mark.parametrize(
        "text, cases",
        [("nbar: 2\ncase: [b, c]", ("b", "c")),
         ("nbar: 2\ncase: [a1, all]", ("aI", "aII", "aIII", "b", "c"))],
        ids=["list", "list_with_all"],
    )
    def test_case_synonym_takes_a_list(self, text, cases):
        assert load_config(text).cases == cases

    @pytest.mark.parametrize(
        "text, keys",
        [("nbar: 4\ndim: 6", ("nbar", "dim")),
         ("nbar: 2\ncases: [b]\ncase: c", ("cases", "case"))],
    )
    def test_key_and_synonym_both_set(self, text, keys):
        # neither one may silently win over the other
        with pytest.raises(ValidationError) as exc:
            load_config(text)
        assert all(repr(k) in str(exc.value) for k in keys)

    def test_rational_strings(self):
        cfg = load_config("nbar: 2\nhprime0: 1/3\ns: -4")
        assignment = cfg.bundle().assignment()
        assert assignment["hp0"] == Fraction(1, 3)
        assert assignment["s"] == Fraction(-4)

    def test_float_rejected(self):
        with pytest.raises(ValidationError):
            load_config("nbar: 2\ns: 0.5")

    def test_bad_rational(self):
        with pytest.raises(ValidationError):
            load_config("nbar: 2\ns: 1/0")

    # Fraction would expand each to an integer of that many digits
    @pytest.mark.parametrize(
        "text, field",
        [('nbar: 2\ns: "1e10000000"', "s"),
         ("nbar: 2\ns: 1e5000", "s"),
         ('nbar: 2\nhprime0: "-2.5E+9"', "hprime0"),
         ("nbar: 2\nX: [1, 2, 3, 1_0e99]", "X[3]"),
         ("nbar: 2\ntorsion:\n  - [1, 2, 3, 1e5000]", "torsion[1,2,3]")],
    )
    def test_exponent_notation_rejected(self, text, field):
        with pytest.raises(ValidationError) as exc:
            load_config(text)
        assert exc.value.field == field
        assert "exponent notation" in str(exc.value)

    def test_unknown_key(self):
        with pytest.raises(ValidationError):
            load_config("nbar: 2\nbogus: 1")

    def test_missing_dimension(self):
        with pytest.raises(ValidationError):
            load_config("mode: oracle")

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            load_config("nbar: [unclosed")
        assert exc.value.line is not None

    @pytest.mark.parametrize("nested", [
        "{a: " * 5000 + "1" + "}" * 5000,
        "\n  " + "- " * 5000 + "1",
    ], ids=["flow_mappings", "block_sequences"])
    def test_deeply_nested_collection(self, nested):
        # PyYAML's composer recurses once per nesting level
        with pytest.raises(ParseError, match="recursion depth"):
            load_config("nbar: 2\ns: " + nested)

    @pytest.mark.parametrize("source", [123, None, 1.5, ["nbar: 2"]],
                             ids=["int", "none", "float", "list"])
    def test_source_that_is_not_text_or_a_file_rejected(self, source):
        # each used to raise AttributeError inside PyYAML
        with pytest.raises(ParseError, match="expected a config path"):
            load_config(source)

    def test_path_text_bytes_and_file_load(self, tmp_path):
        path = tmp_path / "session.yaml"
        path.write_text("nbar: 4\n", encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            from_file = load_config(fh)
        sources = [str(path), "nbar: 4", b"nbar: 4"]
        assert [load_config(s).nbar for s in sources] + [from_file.nbar] == [4] * 4

    def test_path_object_loads(self, tmp_path):
        # a path object is opened like a str path; a missing one is an error,
        # not YAML text
        path = tmp_path / "session.yaml"
        path.write_text("nbar: 4\n", encoding="utf-8")
        assert load_config(path).nbar == 4
        with pytest.raises(ParseError, match="cannot read config"):
            load_config(tmp_path / "missing.yaml")

    @pytest.mark.parametrize("source", ["missing.yaml", "configs/none.yml", "  gone.yaml\n"],
                             ids=["bare", "nested", "padded"])
    def test_missing_str_path_says_so(self, source, tmp_path):
        # one line of text that names no file and is no YAML mapping reads
        # as a path; inline mappings, longer non-mappings and an existing
        # file that holds no mapping keep their own errors
        with pytest.raises(ParseError, match=re.escape(f"no such config file: {source!r}")):
            load_config(source)
        assert load_config("nbar: 4").nbar == 4
        with pytest.raises(ParseError, match="must be a mapping"):
            load_config("- 1\n- 2")
        path = tmp_path / "list.yaml"
        path.write_text("missing.yaml\n", encoding="utf-8")
        with pytest.raises(ParseError, match="must be a mapping"):
            load_config(str(path))

    def test_non_mapping_rejected(self):
        with pytest.raises(ParseError):
            load_config("- 1\n- 2")

    def test_torsion_validation(self):
        with pytest.raises(NonIncreasingTriple):
            load_config("nbar: 2\ntorsion:\n  - [2, 1, 3, 1]")
        with pytest.raises(ValidationError):
            load_config("nbar: 2\ntorsion:\n  - [1, 2, 3]")
        cfg = load_config("nbar: 2\ntorsion:\n  - [1, 2, 3, 1/2]")
        assert cfg.bundle().torsion == {(1, 2, 3): Fraction(1, 2)}

    @pytest.mark.parametrize(
        "text", ["nbar: 2\ncases: 5", "nbar: 2\ntorsion: 5", "nbar: 2\ncases: [[b]]"]
    )
    def test_non_list_fields_rejected(self, text):
        with pytest.raises(ValidationError):
            load_config(text)

    # YAML reads true/false as bools, which Python counts as integers
    @pytest.mark.parametrize(
        "text",
        [
            "nbar: true",
            "nbar: 2\nseed: false",
            "nbar: 2\nverify_lemmas: true",
            "nbar: 2\ntorsion:\n  - [true, 2, 3, 1]",
            "nbar: 2\ntorsion:\n  - [1, 2, true, 1]",
        ],
    )
    def test_booleans_rejected_as_integers(self, text):
        with pytest.raises(ValidationError):
            load_config(text)

    def test_vectors(self):
        cfg = load_config("nbar: 2\nX: [1, 2, 3, 4]")
        assignment = cfg.bundle().assignment()
        assert [assignment[f"X_{k}"] for k in (1, 2, 3, 4)] == [1, 2, 3, 4]
        with pytest.raises(ValidationError):
            load_config("nbar: 2\nX: [1, 2]")

    def test_as_dict_renders_symbolic(self):
        cfg = load_config("nbar: 2\ns: 3")
        d = cfg.as_dict()
        assert d["scalars"]["s"] == "3"
        assert d["scalars"]["dimF"] == "symbolic"


# Config fuzz: YAML mappings over the known keys with values of mixed types.
# nbar is often valid and vectors often the right length, so the data reaches
# the bundle; every list is short, whatever nbar is drawn, so no generated
# config asks for a large vector or torsion table.
# The word "LONG" draws 5,000 ones, an integer past Python's digit limit for
# int-string conversion, which load_everything writes out unquoted, as a
# config file may hold it.  (The strategy's repr may not hold the integer.)
# The word "DEEP" stays a string in the data, and load_everything writes it
# as 5,000 nested flow mappings, deeper than PyYAML can compose or dump.
LONG = (10**5000 - 1) // 9
DEEP = "{a: " * 5000 + "1" + "}" * 5000
words = st.sampled_from(
    ["symbolic", "all", "b", "a2", "json", "oracle", "printed", "3/4", "-1/2",
     "1/0", "x", "", "2", "1e3", "1e5000", "LONG", "DEEP"]
).map(lambda w: LONG if w == "LONG" else w) | st.text(max_size=5)
scalars = (
    st.integers(-3, 12)
    | st.booleans()
    | st.floats(allow_nan=True, allow_infinity=True)
    | words
    | st.none()
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(words, inner, max_size=3),
    max_leaves=12,
)
exact = st.sampled_from([1, "3/4", "-2", "symbolic", None])
SCALAR_KEYS = ("s", "divX", "divY", "dimF", "trPhi", "trPhi2", "hprime0")
vectors = st.lists(exact | scalars, min_size=3, max_size=5) | values
torsion_tables = (
    st.lists(st.lists(st.integers(0, 5) | exact, min_size=3, max_size=5), max_size=3)
    | values
)
FIELDS = {
    "dim": values,
    "mode": st.sampled_from(["oracle", "printed"]) | values,
    "cases": st.lists(words, max_size=3) | values,
    "case": words | values,
    "format": st.sampled_from(["text", "json", "csv"]) | values,
    "seed": st.integers(0, 3) | values,
    "verify_lemmas": st.integers(0, 3) | values,
    "X": vectors,
    "Y": vectors,
    "torsion": torsion_tables,
    **{k: exact | values for k in SCALAR_KEYS},
}
configs = st.fixed_dictionaries(
    {"nbar": st.sampled_from([2, 2, 4]) | values}, optional=FIELDS
)
# Few mixed configs load at all, so these keep a valid nbar and only scalar
# keys: most of them load, and their values, among them strings shaped like
# numbers, reach as_dict and the bundle.
numerals = st.from_regex(
    r"[-+]?[0-9_]{1,3}(/[0-9]{1,2}|\.[0-9]{0,2})?([eE][-+]?[0-9]{1,4})?", fullmatch=True
)
scalar_configs = st.fixed_dictionaries(
    {"nbar": st.sampled_from([2, 4])},
    optional={k: exact | words | numerals for k in SCALAR_KEYS},
)


def load_everything(data):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = yaml.safe_dump(data).replace("DEEP", DEEP)
    finally:
        sys.set_int_max_str_digits(limit)
    try:
        cfg = load_config(text)
        cfg.as_dict()
        cfg.bundle()
    except EngineError:
        pass


# The same values handed to the bundle directly, as library callers do: as
# scalars, as X/Y components and as torsion values under any index triple.
# LONG is drawn on its own too, so that every run hands the bundle some.
bundle_values = st.just(LONG) | exact | words | numerals | values
bundle_data = st.fixed_dictionaries({}, optional={
    **{k: bundle_values for k in SCALAR_KEYS},
    "X": st.lists(bundle_values, min_size=3, max_size=5),
    "Y": st.lists(bundle_values, min_size=3, max_size=5),
    "torsion": st.dictionaries(
        st.tuples(*[st.integers(0, 5)] * 3), bundle_values, max_size=3
    ),
})


class TestConfigFuzz:
    @given(configs)
    def test_any_mapping_raises_only_engine_errors(self, data):
        load_everything(data)

    @given(scalar_configs)
    def test_any_scalar_value_raises_only_engine_errors(self, data):
        load_everything(data)

    @given(bundle_data)
    def test_any_bundle_value_raises_only_engine_errors(self, data):
        try:
            geo = GeometricBundle(4, **data)
        except EngineError:
            return
        # a report renders every value the bundle holds
        for value in [*geo.assignment().values(), *geo.torsion.values()]:
            str(value)
