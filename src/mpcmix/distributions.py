"""Finitely supported distributions, Markov garblings, and the contraction order.

A distribution is a sorted list of atoms with positive rational weights that
sum to one. Garbling it through a row-stochastic matrix pools mass parcels at
their barycenters; a triple (source, transition, target) is only constructed
after both defining identities

    weights(source) @ F == weights(target)
    (weights(source) * atoms(source)) @ F == weights(target) * atoms(target)

have been checked exactly, column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    BarycenterIdentityError,
    DimensionError,
    DistributionError,
    EntryRangeError,
    RowSumError,
    WeightIdentityError,
)
from .linalg import Matrix, column_sums, format_rational, integer_row, parse_rational


@dataclass(frozen=True)
class DiscreteDistribution:
    """Purely atomic distribution: strictly increasing atoms, positive weights."""

    atoms: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.atoms or len(self.atoms) != len(self.weights):
            raise DistributionError("atoms and weights must be equally long and nonempty")
        for k in range(len(self.atoms) - 1):
            if self.atoms[k] >= self.atoms[k + 1]:
                raise DistributionError("atoms must be strictly increasing")
        scale, ints = integer_row(self.weights)
        if min(ints) <= 0:
            raise DistributionError("weights must be positive")
        if sum(ints) != scale:
            raise DistributionError("weights must sum to exactly 1")

    @classmethod
    def from_pairs(cls, atoms, weights) -> "DiscreteDistribution":
        return cls(
            tuple(parse_rational(a) for a in atoms),
            tuple(parse_rational(w) for w in weights),
        )

    @classmethod
    def point_mass(cls, atom) -> "DiscreteDistribution":
        return cls((parse_rational(atom),), (Fraction(1),))

    def mean(self) -> Fraction:
        return sum(p * a for p, a in zip(self.weights, self.atoms))

    def integrated_cdf(self, t: Fraction) -> Fraction:
        """Integral of the cdf from -inf to t: sum of w * max(t - a, 0)."""
        return sum((w * (t - a) for a, w in zip(self.atoms, self.weights) if a < t), Fraction(0))

    def to_json(self) -> dict:
        return {
            "atoms": [format_rational(a) for a in self.atoms],
            "weights": [format_rational(w) for w in self.weights],
        }

    @classmethod
    def from_json(cls, obj) -> "DiscreteDistribution":
        if not isinstance(obj, dict) or "atoms" not in obj or "weights" not in obj:
            raise ValueError("distribution JSON needs 'atoms' and 'weights' lists")
        return cls.from_pairs(obj["atoms"], obj["weights"])


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic (Markov) matrix: entries in [0, 1], every row sums to 1."""

    matrix: Matrix

    def __post_init__(self) -> None:
        # On the integer row of (scale, ints): an entry lies in [0, 1] exactly
        # when 0 <= ints[j] <= scale, and the row sums to 1 exactly when
        # sum(ints) == scale.
        entries = self.matrix.entries
        for i, (scale, ints) in enumerate(self._integer_rows):
            if min(ints) < 0 or max(ints) > scale:
                j = next(j for j, x in enumerate(ints) if x < 0 or x > scale)
                raise EntryRangeError(
                    f"entry ({i},{j}) = {format_rational(entries[i][j])} outside [0, 1]",
                    row=i,
                    column=j,
                )
            total = sum(ints)
            if total != scale:
                raise RowSumError(
                    f"row {i} sums to {format_rational(Fraction(total, scale))}, not 1"
                )

    @cached_property
    def _integer_rows(self) -> tuple[tuple[int, list[int]], ...]:
        """Each row as ``integer_row``'s ``(scale, ints)``, built on first use."""
        return tuple(integer_row(row) for row in self.matrix.entries)

    @classmethod
    def from_rows(cls, rows) -> "TransitionMatrix":
        return cls(Matrix.from_rows(rows))

    @classmethod
    def _trusted(cls, matrix: Matrix) -> "TransitionMatrix":
        # Fast path for callers whose construction already guarantees the
        # invariants exactly; everything user-facing goes through __init__.
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", matrix)
        return self

    @classmethod
    def identity(cls, n: int) -> "TransitionMatrix":
        return cls(Matrix.identity(n))

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols

    def column(self, j: int) -> tuple[Fraction, ...]:
        return self.matrix.column(j)

    def to_json(self) -> dict:
        return {"rows": [[format_rational(x) for x in row] for row in self.matrix.entries]}

    @classmethod
    def from_json(cls, obj) -> "TransitionMatrix":
        if not isinstance(obj, dict) or "rows" not in obj:
            raise ValueError("matrix JSON needs a 'rows' grid")
        return cls.from_rows(obj["rows"])


@dataclass(frozen=True)
class SmpcTriple:
    """A certified (source, transition, target) garbling triple.

    Construction re-checks both defining identities exactly, so any held
    instance is valid by construction.
    """

    source: DiscreteDistribution
    transition: TransitionMatrix
    target: DiscreteDistribution

    def __post_init__(self) -> None:
        n, m = len(self.source.atoms), len(self.target.atoms)
        if self.transition.rows != n or self.transition.cols != m:
            raise DimensionError(
                f"transition is {self.transition.rows}x{self.transition.cols}, "
                f"expected {n}x{m}"
            )
        q, b = self.target.weights, self.target.atoms
        d_w, s_w, d_mom, s_mom = _masses_and_moments(self.source, self.transition)
        # S / D == q exactly when S * den(q) == num(q) * D; for q_j * b_j the
        # numerators and denominators of both factors are multiplied.
        for j in range(m):
            if s_w[j] * q[j].denominator != q[j].numerator * d_w:
                raise WeightIdentityError(
                    f"weight identity fails at column {j}: "
                    f"{format_rational(Fraction(s_w[j], d_w))} != {format_rational(q[j])}",
                    column=j,
                )
        for j in range(m):
            qj, bj = q[j], b[j]
            if s_mom[j] * qj.denominator * bj.denominator != qj.numerator * bj.numerator * d_mom:
                raise BarycenterIdentityError(
                    f"barycenter identity fails at column {j}: "
                    f"{format_rational(Fraction(s_mom[j], d_mom))} != {format_rational(qj * bj)}",
                    column=j,
                )

    @classmethod
    def _trusted(
        cls,
        source: DiscreteDistribution,
        transition: TransitionMatrix,
        target: DiscreteDistribution,
    ) -> "SmpcTriple":
        # Fast path for apply_transition, whose outputs satisfy both
        # identities by the construction arithmetic itself.
        self = object.__new__(cls)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "target", target)
        return self

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "transition": self.transition.to_json(),
            "target": self.target.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "SmpcTriple":
        if not isinstance(obj, dict):
            raise ValueError("triple JSON must be an object")
        for key in ("source", "transition", "target"):
            if key not in obj:
                raise ValueError(f"triple JSON needs '{key}'")
        return cls(
            DiscreteDistribution.from_json(obj["source"]),
            TransitionMatrix.from_json(obj["transition"]),
            DiscreteDistribution.from_json(obj["target"]),
        )


def _masses_and_moments(
    source: DiscreteDistribution, transition: TransitionMatrix
) -> tuple[int, list[int], int, list[int]]:
    """Column masses s_w / d_w and first moments s_mom / d_mom of a garbling.

    Column j's mass is sum_i p_i F_ij and its first moment sum_i p_i a_i F_ij,
    each computed on F's integer rows.
    """
    p, a = source.weights, source.atoms
    rows = transition._integer_rows
    d_w, s_w = column_sums(p, rows)
    d_mom, s_mom = column_sums([pi * ai for pi, ai in zip(p, a)], rows)
    return d_w, s_w, d_mom, s_mom


def apply_transition(source: DiscreteDistribution, transition: TransitionMatrix) -> SmpcTriple:
    """Garble ``source`` through ``transition`` and return the certified triple.

    Zero-mass columns are dropped (they carry no atom), and columns whose
    barycenters coincide are merged by summing them, so any row-stochastic
    matrix is a legal input. Target atoms come out sorted with the matrix
    columns permuted to match.
    """
    n = len(source.atoms)
    if transition.rows != n:
        raise DimensionError(f"transition has {transition.rows} rows, expected {n}")
    d_w, s_w, d_mom, s_mom = _masses_and_moments(source, transition)
    merged: dict[Fraction, list[int]] = {}
    for j, mass in enumerate(s_w):
        if mass:
            merged.setdefault(Fraction(s_mom[j] * d_w, d_mom * mass), []).append(j)
    atoms = tuple(sorted(merged))
    columns = tuple(zip(*transition.matrix.entries))
    weights, grid_columns = [], []
    for barycenter in atoms:
        group = merged[barycenter]
        weights.append(Fraction(sum(s_w[j] for j in group), d_w))
        if len(group) == 1:
            grid_columns.append(columns[group[0]])
        else:
            grid_columns.append(tuple(map(sum, zip(*(columns[j] for j in group)))))
    grid = tuple(zip(*grid_columns))
    target = DiscreteDistribution(atoms, tuple(weights))
    # Both identities hold by the arithmetic above: the target weights are the
    # computed column masses and each atom is its column's exact barycenter.
    return SmpcTriple._trusted(source, TransitionMatrix._trusted(Matrix(grid)), target)


def mpc_violation(source: DiscreteDistribution, candidate: DiscreteDistribution) -> str | None:
    """Why ``candidate`` is not a mean-preserving contraction of ``source``.

    Returns ``None`` when it is one. The test is the integrated-cdf criterion:
    equal means, and the integrated cdf of the candidate weakly below that of
    the source. Both integrated cdfs are piecewise linear with kinks only at
    atoms, so comparing at every atom of either distribution decides the
    pointwise inequality. One merged sweep over both atom lists carries the
    mass and first moment below t of each, since the integrated cdf at t is
    t * mass - moment; the differences candidate minus source are enough.
    """
    if candidate.mean() != source.mean():
        return "mean mismatch"
    a, p = source.atoms, source.weights
    b, q = candidate.atoms, candidate.weights
    mass = moment = Fraction(0)
    i = j = 0
    while i < len(a) or j < len(b):
        t = b[j] if i == len(a) or (j < len(b) and b[j] < a[i]) else a[i]
        if t * mass > moment:
            return f"integrated cdf exceeds at {format_rational(t)}"
        if i < len(a) and a[i] == t:
            mass -= p[i]
            moment -= p[i] * t
            i += 1
        if j < len(b) and b[j] == t:
            mass += q[j]
            moment += q[j] * t
            j += 1
    return None


def is_mpc(source: DiscreteDistribution, candidate: DiscreteDistribution) -> bool:
    """Exact convex-order test: is ``candidate`` an MPC of ``source``?"""
    return mpc_violation(source, candidate) is None
