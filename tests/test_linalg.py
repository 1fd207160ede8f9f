import math
from fractions import Fraction
from random import Random

import pytest

from mpcmix import Matrix, format_rational, null_space_vector, parse_rational, rank
from mpcmix.linalg import MAX_DIGITS

from cases import GARBLING, NULL_COEFFS


class TestRationals:
    def test_exact_arithmetic(self):
        assert parse_rational("1/6") + parse_rational("1/3") == Fraction(1, 2)
        assert parse_rational("2/3") * parse_rational("3/10") == Fraction(1, 5)
        assert parse_rational("3/64") < parse_rational("3/4")

    def test_parse_forms(self):
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational("7") == Fraction(7)
        assert parse_rational(7) == Fraction(7)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational(" 1/2 ") == Fraction(1, 2)

    def test_parse_rejects_garbage(self):
        for bad in ("", "one half", "1/0", 0.25, None, True):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_parse_bounds_digits_and_exponents(self):
        assert parse_rational(f"1e{MAX_DIGITS}") == 10**MAX_DIGITS
        assert parse_rational(f"-3E-{MAX_DIGITS}") == Fraction(-3, 10**MAX_DIGITS)
        assert parse_rational("7" * MAX_DIGITS) == Fraction(int("7" * MAX_DIGITS))
        assert parse_rational(f"1/{'3' * MAX_DIGITS}").denominator == int("3" * MAX_DIGITS)
        for bad in (
            "1e1000000",
            f"1e{MAX_DIGITS + 1}",
            f"2.5e-{MAX_DIGITS + 1}",
            "7" * (MAX_DIGITS + 1),
            f"1/{'3' * (MAX_DIGITS + 1)}",
            f"0.{'1' * (MAX_DIGITS + 1)}",
        ):
            with pytest.raises(ValueError, match=f"beyond {MAX_DIGITS}|more than {MAX_DIGITS}"):
                parse_rational(bad)

    def test_format_round_trips(self):
        for text in ("0", "-5", "4/7", "-21/40"):
            assert format_rational(parse_rational(text)) == text

    def test_division_by_zero_is_explicit(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    def test_results_stay_canonical(self):
        rng = Random(7)
        current = Fraction(1)
        for _ in range(300):
            other = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            op = rng.randint(0, 3)
            if op == 0:
                current = current + other
            elif op == 1:
                current = current - other
            elif op == 2:
                current = current * other
            elif other != 0:
                current = current / other
            assert current.denominator > 0
            assert math.gcd(abs(current.numerator), current.denominator) == 1


class TestMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Matrix(())
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]])

    def test_accessors(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.column(1) == (Fraction(2), Fraction(5))
        assert m.mul_vector((1, 0, -1)) == (Fraction(-2), Fraction(-2))


class TestNullSpace:
    def test_worked_garbling_columns(self):
        c = null_space_vector(GARBLING.matrix)
        assert c == NULL_COEFFS
        assert GARBLING.matrix.mul_vector(c) == (Fraction(0),) * 3

    def test_full_column_rank_gives_none(self):
        assert null_space_vector(Matrix.identity(2)) is None
        assert null_space_vector(Matrix.from_rows([[1, 0], [0, 1], [1, 1]])) is None

    def test_duplicate_columns(self):
        m = Matrix.from_rows([["1/3", "1/3"], ["2/5", "2/5"]])
        assert null_space_vector(m) == (Fraction(1), Fraction(-1))

    def test_random_wide_matrices_have_exact_kernels(self):
        rng = Random(11)
        for _ in range(150):
            n = rng.randint(1, 5)
            grid = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n + 1)]
                for _ in range(n)
            ]
            m = Matrix.from_rows(grid)
            c = null_space_vector(m)
            assert c is not None
            assert any(v != 0 for v in c)
            assert m.mul_vector(c) == (Fraction(0),) * n
            lead = next(v for v in c if v != 0)
            assert lead == 1

    def test_deterministic(self):
        first = null_space_vector(GARBLING.matrix)
        rebuilt = Matrix.from_rows([[str(x) for x in row] for row in GARBLING.matrix.entries])
        assert null_space_vector(rebuilt) == first

    def test_rank(self):
        assert rank(Matrix.identity(3)) == 3
        assert rank(GARBLING.matrix) == 3
        assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1
