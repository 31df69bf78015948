"""Config loading and validation."""

from fractions import Fraction

import pytest

from ncresidue.config import SessionConfig, load_config
from ncresidue.errors import (
    NonIncreasingTriple,
    OddBarDimension,
    ParseError,
    UnsupportedDimension,
    ValidationError,
)


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

    def test_bundle_dimension(self):
        cfg = SessionConfig(nbar=4, scalars={"s": 3, "dimF": "1/2"})
        geo = cfg.bundle()
        assert geo.n == 6
        assert geo.s == Fraction(3)
        assert geo.dimF == Fraction(1, 2)


class TestLoadConfig:
    def test_minimal_inline(self):
        cfg = load_config("nbar: 2")
        assert cfg.nbar == 2
        assert all(v is None for v in cfg.scalars.values())

    def test_dim_synonym_and_single_case(self):
        cfg = load_config("dim: 4\ncase: a2\nformat: json")
        assert cfg.nbar == 4
        assert cfg.cases == ("aII",)
        assert cfg.fmt == "json"

    def test_rational_strings(self):
        cfg = load_config("nbar: 2\nhprime0: 1/3\ns: -4")
        assert cfg.scalars["hprime0"] == Fraction(1, 3)
        assert cfg.scalars["s"] == Fraction(-4)

    def test_float_rejected(self):
        with pytest.raises(ValidationError):
            load_config("nbar: 2\ns: 0.5")

    def test_bad_rational(self):
        with pytest.raises(ValidationError):
            load_config("nbar: 2\ns: 1/0")

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

    def test_non_mapping_rejected(self):
        with pytest.raises(ParseError):
            load_config("- 1\n- 2")

    def test_torsion_validation(self):
        with pytest.raises(NonIncreasingTriple):
            load_config("nbar: 2\ntorsion:\n  - [2, 1, 3, 1]")
        with pytest.raises(ValidationError):
            load_config("nbar: 2\ntorsion:\n  - [1, 2, 3]")
        cfg = load_config("nbar: 2\ntorsion:\n  - [1, 2, 3, 1/2]")
        assert cfg.torsion == {(1, 2, 3): Fraction(1, 2)}

    @pytest.mark.parametrize(
        "text", ["nbar: 2\ncases: 5", "nbar: 2\ntorsion: 5", "nbar: 2\ncases: [[b]]"]
    )
    def test_non_list_fields_rejected(self, text):
        with pytest.raises(ValidationError):
            load_config(text)

    def test_vectors(self):
        cfg = load_config("nbar: 2\nX: [1, 2, 3, 4]")
        assert cfg.X == [Fraction(k) for k in (1, 2, 3, 4)]
        with pytest.raises(ValidationError):
            load_config("nbar: 2\nX: [1, 2]")

    def test_as_dict_renders_symbolic(self):
        cfg = load_config("nbar: 2\ns: 3")
        d = cfg.as_dict()
        assert d["scalars"]["s"] == "3"
        assert d["scalars"]["dimF"] == "symbolic"
