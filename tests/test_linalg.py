import math
from fractions import Fraction
from random import Random

import pytest

import linalg_fraction_reference as reference
from mpcmix import (
    DiscreteDistribution,
    Matrix,
    PiecewiseLinearFn,
    SmpcTriple,
    TransitionMatrix,
    apply_transition,
    decompose_full,
    linalg,
    mpc_violation,
    parse_rational,
)
from mpcmix.decomposition import _Basis
from mpcmix.linalg import MAX_DIGITS, integer_row

from cases import GARBLING, NULL_COEFFS, PRIOR, TARGET, coprime_integers, identity
from persuasion_lp_reference import evaluate


def times(matrix, vec):
    """The matrix-vector product ``matrix @ vec``."""
    return tuple(sum(x * v for x, v in zip(row, vec)) for row in matrix.entries)


def basis_of(matrix):
    """The basis state of all of ``matrix``'s columns, by one elimination."""
    return _Basis.of([ints for _, ints in matrix._integer_rows], matrix.cols)


def first_dependency(matrix):
    """The state's first dependency as a dense integer vector, the null
    direction that the split reads, or ``None`` when the columns are independent."""
    basis = basis_of(matrix)
    if not basis.deps:
        return None
    d = [0] * matrix.cols
    for k, x in basis.dependency(next(iter(basis.deps))):
        d[k] = x
    return d


def assert_matches_the_reference(matrix):
    """The basic columns count the rank, and the first dependency is the
    reference's null vector as coprime integers, ``None`` at full column rank."""
    assert len(basis_of(matrix).columns) == reference.rank(matrix)
    expected = reference.null_space_vector(matrix)
    assert first_dependency(matrix) == (None if expected is None else coprime_integers(expected))


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
        # The message quotes only the start of a long value.
        for bad in ("x" * 10_000, ["1"] * 10_000):
            with pytest.raises(ValueError) as err:
                parse_rational(bad)
            assert len(str(err.value)) < 100

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
            # Arabic-Indic and fullwidth digits, which Fraction reads too.
            "1e٧٧٧٧٧٧٧",
            "1e-７_７７７_７７７",
            "٣" * (MAX_DIGITS + 1),
        ):
            with pytest.raises(ValueError, match=f"beyond {MAX_DIGITS}|more than {MAX_DIGITS}"):
                parse_rational(bad)

    def test_format_round_trips(self):
        for text in ("0", "-5", "4/7", "-21/40"):
            assert str(parse_rational(text)) == text

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
        assert m.entries == ((1, 2, 3), (4, 5, 6))

    def test_is_immutable(self):
        m = Matrix.from_rows([[1, 2]])
        with pytest.raises(AttributeError, match="^Matrix is immutable$"):
            m._integer_rows = ()
        with pytest.raises(AttributeError, match="^Matrix is immutable$"):
            del m._integer_rows
        assert m == Matrix.from_rows([["1", "2"]])

    def test_equality_with_another_type_is_not_implemented(self):
        m = Matrix.from_rows([[1]])
        assert m.__eq__(object()) is NotImplemented
        assert (m == object()) is False
        assert (m != object()) is True

    def test_hash_reads_the_integer_rows(self):
        # Hashing a parsed matrix, or a triple that holds one, builds no Fraction grid.
        parsed = TransitionMatrix.from_rows([["1/3", "2/3"], ["0.5", "1/2"]])
        half = Fraction(1, 2)
        assert hash(parsed) == hash(TransitionMatrix(((Fraction(1, 3), Fraction(2, 3)), (half, half))))
        assert "entries" not in vars(parsed)
        garbling = TransitionMatrix.from_rows([[str(x) for x in row] for row in GARBLING.entries])
        built = TransitionMatrix(GARBLING.entries)
        assert hash(SmpcTriple(PRIOR, garbling, TARGET)) == hash(SmpcTriple(PRIOR, built, TARGET))
        assert "entries" not in vars(garbling)

    def test_distributions_read_from_json_build_no_fraction_grid(self):
        # The order test, certification, garbling, hashing and equality all
        # read a distribution's integer rows.
        prior, target = (DiscreteDistribution.from_json(d.to_json()) for d in (PRIOR, TARGET))
        garbling = TransitionMatrix.from_json(GARBLING.to_json())
        assert mpc_violation(prior, target) is None
        assert mpc_violation(target, prior) == "integrated cdf exceeds at 1/6"
        SmpcTriple(prior, garbling, target)
        applied = apply_transition(prior, garbling)
        assert applied.target == target
        assert hash(prior) == hash(PRIOR) and hash(applied.target) == hash(TARGET)
        assert prior == PRIOR and prior != target
        for d in (prior, target, applied.target):
            assert "entries" not in vars(d)
        # The grid is what the Fraction atoms are read from.
        assert prior.atoms == PRIOR.atoms and "entries" in vars(prior)


HALF = Fraction(1, 2)


class _Int(int):
    pass


class _Ratio(Fraction):
    pass


# Each builds one public value with ``x`` in a slot where a rational belongs.
CONSTRUCTORS = {
    "atom": lambda x: DiscreteDistribution((x, Fraction(1)), (HALF, HALF)),
    "weight": lambda x: DiscreteDistribution((Fraction(0), Fraction(1)), (x, HALF)),
    "matrix entry": lambda x: Matrix(((x, Fraction(1)),)),
    "transition entry": lambda x: TransitionMatrix(((x, HALF),)),
    "knot x": lambda x: PiecewiseLinearFn(((x, Fraction(0)), (Fraction(2), Fraction(1)))),
    "knot y": lambda x: PiecewiseLinearFn(((Fraction(0), x), (Fraction(2), Fraction(1)))),
}


class TestOnlyRationalsAreValues:
    @pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
    @pytest.mark.parametrize("value", [0.5, True, False, "1/2", None, complex(1, 0)], ids=repr)
    def test_other_values_are_value_errors(self, build, value):
        with pytest.raises(ValueError) as err:
            build(value)
        assert type(err.value) is ValueError
        assert str(err.value) == f"not a rational: {value!r}"

    @pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
    @pytest.mark.parametrize("value", [HALF, _Ratio(1, 2)], ids=["Fraction", "Fraction subclass"])
    def test_fractions_are_accepted(self, build, value):
        build(value)

    def test_ints_are_accepted(self):
        for value in (0, _Int(0)):
            assert DiscreteDistribution((value, 1), (HALF, HALF)).atoms == (0, 1)
            assert Matrix(((value, 1),)).entries == ((0, 1),)
            assert TransitionMatrix(((value, 1),)) == TransitionMatrix.from_rows([["0", "1"]])
            assert evaluate(PiecewiseLinearFn(((value, value), (2, 1))), Fraction(1, 3)) == Fraction(1, 6)

    def test_the_reported_cases(self):
        with pytest.raises(ValueError, match="^not a rational: 0.5$"):
            DiscreteDistribution((0.5, 1.0), (HALF, HALF))
        with pytest.raises(ValueError, match="^not a rational: 0.0$"):
            PiecewiseLinearFn(((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="^not a rational: 0.5$"):
            TransitionMatrix(((0.5, 0.5),))
        with pytest.raises(ValueError, match="^not a rational: True$"):
            TransitionMatrix(((True, False), (False, True)))

    def test_parse_rational_keeps_the_same_rule(self):
        for value in (0.5, True, None):
            with pytest.raises(ValueError, match=f"^not a rational: {value!r}$"):
                parse_rational(value)
        assert parse_rational(_Int(3)) == 3


class TestTextIsNotARow:
    """Text where a row of rationals belongs is refused, not read one character at a time."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: linalg.parse_row("01"),
            lambda: Matrix.from_rows(["01", ["1", "2"]]),
            lambda: TransitionMatrix.from_rows([["1"], "01"]),
            lambda: DiscreteDistribution.from_rows(["01", ["1/2", "1/2"]]),
            lambda: DiscreteDistribution.from_rows([["0", "1"], "01"]),
        ],
        ids=["parse_row", "matrix", "transition", "atoms", "weights"],
    )
    def test_text_is_a_value_error(self, build):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError
        assert str(err.value) == "not a row of rationals: '01'"

    def test_long_text_is_cut_in_the_message(self):
        with pytest.raises(ValueError, match=f"^not a row of rationals: '{'1' * 40}'$"):
            linalg.parse_row("1" * 50)

    @pytest.mark.parametrize(
        "build, shown",
        [
            # Read one byte at a time, b"12" was the row 49, 50.
            (lambda: Matrix.from_rows([b"12"]), "b'12'"),
            (lambda: Matrix.from_rows([["1", "2"], bytearray(b"12")]), "bytearray(b'12')"),
            (lambda: TransitionMatrix.from_rows([b"\x01"]), "b'\\x01'"),
            # Read one byte at a time, these rows were a point mass at 5.
            (lambda: DiscreteDistribution.from_rows([b"\x05", ["1"]]), "b'\\x05'"),
            (lambda: DiscreteDistribution.from_rows([["5"], b"\x01"]), "b'\\x01'"),
        ],
        ids=["matrix", "bytearray", "transition", "atoms", "weights"],
    )
    def test_bytes_are_a_value_error(self, build, shown):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError
        assert str(err.value) == f"not a row of rationals: {shown}"


class TestNullSpace:
    """The basis state that the split reads against the ``Fraction`` reference's rank and null vector."""

    def test_worked_garbling_columns(self):
        d = first_dependency(GARBLING)
        assert d == list(NULL_COEFFS)
        assert times(GARBLING, d) == (Fraction(0),) * 3
        assert_matches_the_reference(GARBLING)

    def test_full_column_rank_gives_none(self):
        for m in (identity(2), Matrix.from_rows([[1, 0], [0, 1], [1, 1]])):
            assert basis_of(m).deps == {}
            assert first_dependency(m) is None
            assert_matches_the_reference(m)

    def test_duplicate_columns(self):
        m = Matrix.from_rows([["1/3", "1/3"], ["2/5", "2/5"]])
        assert first_dependency(m) == [1, -1]
        assert_matches_the_reference(m)

    def test_random_wide_matrices_have_exact_kernels(self):
        rng = Random(11)
        for _ in range(150):
            n = rng.randint(1, 5)
            grid = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n + 1)]
                for _ in range(n)
            ]
            m = Matrix.from_rows(grid)
            d = first_dependency(m)
            assert d is not None
            assert times(m, d) == (Fraction(0),) * n
            assert next(x for x in d if x) > 0 and math.gcd(*d) == 1
            assert_matches_the_reference(m)

    def test_deterministic(self):
        rebuilt = Matrix.from_rows([[str(x) for x in row] for row in GARBLING.entries])
        assert first_dependency(rebuilt) == first_dependency(GARBLING)

    def test_rank(self):
        for m, expected in ((identity(3), 3), (GARBLING, 3), (Matrix.from_rows([[1, 2], [2, 4]]), 1)):
            assert len(basis_of(m).columns) == expected
            assert_matches_the_reference(m)

    def test_elimination_reuses_a_transitions_cached_rows(self, monkeypatch):
        # A row is converted to integers from text by parse_row, or from
        # Fraction values by integer_row; each call is recorded by its values.
        converted = []

        def counting(convert):
            def counted(values):
                values = tuple(values)
                converted.append(tuple(map(parse_rational, values)))
                return convert(values)

            return counted

        monkeypatch.setattr(linalg, "parse_row", counting(linalg.parse_row))
        monkeypatch.setattr(linalg, "integer_row", counting(linalg.integer_row))
        transition = TransitionMatrix.from_rows([[str(x) for x in row] for row in GARBLING.entries])
        triple = SmpcTriple(PRIOR, transition, TARGET)
        decompose_full(triple)
        assert [converted.count(row) for row in transition.entries] == [1, 1, 1]
