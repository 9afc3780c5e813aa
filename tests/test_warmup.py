"""Tests for the direct integer construction and its pipeline cross-check."""

from dataclasses import replace
from fractions import Fraction

import pytest

from endperiodic import (
    InvalidInputError,
    VerificationError,
    build_integer_case,
    cross_validate,
    f0_integer,
)


class TestF0Integer:
    def test_worked_example(self):
        # interior limit within the first vertical strip for d = 2
        assert f0_integer(2, Fraction(1, 2), Fraction(1, 2), k=1) == (
            Fraction(1),
            Fraction(3, 4),
        )

    def test_exact_rational_arithmetic(self):
        x, y = f0_integer(3, Fraction(1, 7), Fraction(2, 5), k=1)
        assert (x, y) == (Fraction(3, 7), 1 - Fraction(2, 5) / 3)

    def test_strip_interiors_need_no_hint(self):
        x, y = f0_integer(2, Fraction(3, 4), Fraction(1, 3))
        assert (x, y) == (Fraction(1, 2), 1 - Fraction(1 + Fraction(1, 3), 2))

    def test_boundary_needs_strip_hint(self):
        with pytest.raises(InvalidInputError):
            f0_integer(2, Fraction(1, 2), Fraction(1, 2))

    def test_rejects_points_outside_unit_square(self):
        with pytest.raises(InvalidInputError):
            f0_integer(2, Fraction(3, 2), Fraction(1, 2), k=2)
        with pytest.raises(InvalidInputError):
            f0_integer(2, Fraction(1, 4), Fraction(-1, 2), k=1)

    def test_rejects_mismatched_strip_hint(self):
        with pytest.raises(InvalidInputError):
            f0_integer(2, Fraction(1, 4), Fraction(1, 2), k=2)


class TestBuildIntegerCase:
    def test_rejects_small_or_non_integer(self):
        with pytest.raises(InvalidInputError):
            build_integer_case(1)
        with pytest.raises(InvalidInputError):
            build_integer_case(2.5)

    def test_direct_record_structure(self):
        for d in (2, 3, 7):
            case = build_integer_case(d)
            direct = case.direct
            assert direct.stretch_factor == d
            assert direct.incidence == ((d, 0), (0, d))
            assert len(direct.vertical_strips) == d
            assert len(direct.horizontal_strips) == d
            for a, b in direct.vertical_strips:
                assert b - a == Fraction(1, d)
            assert len(direct.infinite_strips) == 4
            assert direct.attachment_width == Fraction(1, d * d)
            assert direct.ends == {
                "Attracting": ("E_L", "E_R"),
                "Repelling": ("E_B", "E_T"),
            }

    def test_planar_strip_coordinates(self):
        case = build_integer_case(2)
        strips = case.direct.infinite_strips
        q = Fraction(1, 4)
        assert strips["E_L"] == ((None, 0), (1 - q, 1))
        assert strips["E_T"] == ((0, q), (1, None))
        assert strips["E_R"] == ((1, None), (0, q))
        assert strips["E_B"] == ((1 - q, 1), (None, 0))


class TestCrossValidate:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_pipeline_agrees_with_direct_route(self, d):
        assert cross_validate(d) is True

    def test_expected_values_come_from_the_direct_record(self, monkeypatch):
        # a direct record with d + 1 vertical strips disagrees with the
        # pipeline's d: the check reads its counts off the record
        import endperiodic.warmup as warmup

        build = warmup.build_integer_case

        def tampered(d):
            case = build(d)
            q = Fraction(1, d + 1)
            strips = tuple((k * q, (k + 1) * q) for k in range(d + 1))
            return replace(case, direct=replace(case.direct, vertical_strips=strips))

        monkeypatch.setattr(warmup, "build_integer_case", tampered)
        with pytest.raises(VerificationError) as info:
            cross_validate(3)
        assert info.value.actual.startswith(
            "vertical_strip_count: direct=4 pipeline=3; "
        )

    def test_pipeline_facts(self):
        from endperiodic.warmup import _pipeline_facts

        case = build_integer_case(3)
        facts = _pipeline_facts(case.pipeline)
        assert facts["incidence"] == ((3, 0), (0, 3))
        assert facts["stretch_factor"] == pytest.approx(3.0, abs=1e-12)
        assert facts["infinite_strip_count"] == 4
        assert facts["end_census"] == {"Attracting": 1, "Repelling": 1}
