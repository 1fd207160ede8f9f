"""Witnesses as left-curtain couplings: ``find_witness`` against ``is_mpc`` and the LP.

A witness exists exactly when the target is a mean-preserving contraction of
the source. The shadow construction must find one on every such pair, return
None on every other pair, agree with the feasibility of the witness LP in
``lp_oracle.lp_witness``, and hand back only matrices that pass the full
``SmpcTriple`` check. The integer sweeps of ``mpc_violation`` and
``find_witness`` must give the reasons and the integer rows that the
``Fraction`` versions in ``witness_fraction_reference`` give.
"""

import json
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcmix import (
    DiscreteDistribution,
    SmpcTriple,
    TransitionMatrix,
    apply_transition,
    find_witness,
    is_mpc,
)
from mpcmix import cli, distributions
from mpcmix.errors import InternalError
from mpcmix.randgen import random_distribution

from cases import PRIOR, TARGET, dist, point_mass, tm
from lp_oracle import lp_witness
from random_instances import perturb_mean, random_smpc
import witness_fraction_reference as reference

PROFILE = settings(max_examples=100, deadline=None, derandomize=True, database=None)
PRIMES = (999_961, 999_979, 999_983, 1_000_003, 1_000_033, 1_000_037, 1_000_039)


@st.composite
def garblings(draw):
    """A source of 1 to 5 atoms garbled through a random row-stochastic matrix of up to 8 columns.

    Smaller than the decomposition tests' garblings, so that the witness LP of
    every reversed pair stays quick.
    """
    n = draw(st.integers(1, 5), label="n")
    m = draw(st.integers(1, 8), label="m")
    atoms = draw(st.lists(st.fractions(-6, 6, max_denominator=6), min_size=n, max_size=n, unique=True), label="atoms")
    raw_weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n), label="weights")
    raw_rows = draw(
        st.lists(st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(any), min_size=n, max_size=n),
        label="rows",
    )
    total = sum(raw_weights)
    source = DiscreteDistribution(tuple(sorted(atoms)), tuple(Fraction(w, total) for w in raw_weights))
    rows = tuple(tuple(Fraction(x, sum(row)) for x in row) for row in raw_rows)
    return apply_transition(source, TransitionMatrix(rows))


def _assert_decided_like_the_lp(source, target):
    witness = find_witness(source, target)
    assert (witness is not None) is is_mpc(source, target)
    assert (witness is not None) is (lp_witness(source, target) is not None)
    if witness is not None:
        SmpcTriple(source, witness, target)


@PROFILE
@given(garblings(), st.integers(1, 9))
def test_witness_exists_exactly_for_contractions(triple, shift):
    source, target = triple.source, triple.target
    shifted = DiscreteDistribution(target.atoms[:-1] + (target.atoms[-1] + Fraction(1, shift),), target.weights)
    for pair in ((source, target), (target, source), (source, shifted), (source, source)):
        _assert_decided_like_the_lp(*pair)


def test_worked_pair_gets_the_left_curtain_coupling():
    # Target atom 1/6 takes the window of mass 3/10 and mean 1/6: 1/5 at 0 and
    # 1/10 at 1/2. Atom 1/2 takes 1/5 at 1/2; atom 3/4 takes 1/20 at 0 and
    # 3/20 at 1; atom 5/6 takes the rest.
    witness = find_witness(PRIOR, TARGET)
    assert witness.entries == tuple(
        tuple(Fraction(x) for x in row)
        for row in (("2/3", "0", "1/6", "1/6"), ("1/3", "2/3", "0", "0"), ("0", "0", "3/8", "5/8"))
    )


def _prime_denominator_pair(n, m, seed):
    """A source of n atoms whose weights share one prime denominator, garbled onto m columns."""
    rng = Random(seed)
    den = PRIMES[seed % len(PRIMES)]
    cuts = sorted(rng.sample(range(1, den), n - 1))
    weights = tuple(Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den]))
    atoms = tuple(Fraction(a, 7) for a in sorted(rng.sample(range(-500, 500), n)))
    rows = []
    for _ in range(n):
        row = [rng.randint(0, 6) for _ in range(m)]
        row[rng.randrange(m)] += 1
        rows.append(tuple(Fraction(x, sum(row)) for x in row))
    return apply_transition(DiscreteDistribution(atoms, weights), TransitionMatrix(tuple(rows)))


def test_a_wide_prime_denominator_pair_gets_a_witness():
    triple = _prime_denominator_pair(20, 30, seed=5)
    assert len(triple.target.atoms) == 30
    witness = find_witness(triple.source, triple.target)
    assert (witness.rows, witness.cols) == (20, 30)
    SmpcTriple(triple.source, witness, triple.target)


POOLED = point_mass(Fraction(1, 2))
SPREAD = dist(["0", "1"], ["1/2", "1/2"])
SHIFTED = dist(["0", "1/2", "2"], ["3/10", "3/10", "2/5"])


class TestInternalErrors:
    """Pairs that reach the construction although they are no contraction."""

    @pytest.fixture
    def accept_everything(self, monkeypatch):
        monkeypatch.setattr(distributions, "mpc_violation", lambda source, candidate: None)

    def test_a_target_below_every_window_has_no_shadow(self, accept_everything):
        with pytest.raises(InternalError, match="^no shadow window for the target atom at 0: every window's mean is above it$"):
            find_witness(POOLED, SPREAD)

    def test_a_target_above_every_window_has_no_shadow(self, accept_everything):
        with pytest.raises(InternalError, match="^no shadow window for the target atom at 2: every window's mean is below it$"):
            find_witness(PRIOR, SHIFTED)

    def test_the_cli_reports_a_missing_shadow_with_exit_3(self, accept_everything, tmp_path, capsys):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"source": POOLED.to_json(), "target": SPREAD.to_json()}), encoding="utf-8")
        assert cli.main(["find-witness", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": {"code": "internal", "message": "no shadow window for the target atom at 0: every window's mean is above it"}
        }

    def test_a_witness_that_fails_its_check_is_an_internal_error(self, monkeypatch):
        real = distributions._masses_and_moments

        def one_off(source, transition):
            d_w, s_w, d_mom, s_mom = real(source, transition)
            return d_w, [s_w[0] + 1, *s_w[1:]], d_mom, s_mom

        monkeypatch.setattr(distributions, "_masses_and_moments", one_off)
        with pytest.raises(InternalError, match="^shadow witness failed revalidation: weight identity fails at column 0"):
            find_witness(PRIOR, TARGET)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda ints: [ints[0] + 1, *ints[1:]], r"row 0 sums to 7/6, not 1"),
            (lambda ints: [ints[0] + 1, -1, *ints[2:]], r"entry \(0,1\) = -1/6 outside \[0, 1\]"),
        ],
        ids=["row sum", "range"],
    )
    def test_a_corrupted_row_fails_the_matrix_checks(self, monkeypatch, corrupt, message):
        # Row 0 of the worked pair's witness is (4, 0, 1, 1) / 6.
        real = distributions.canonical_row

        def corrupted(scale, ints):
            scale, ints = real(scale, ints)
            return scale, corrupt(ints)

        monkeypatch.setattr(distributions, "canonical_row", corrupted)
        with pytest.raises(InternalError, match=f"^shadow witness failed revalidation: {message}$"):
            find_witness(PRIOR, TARGET)

    def test_the_witness_rows_go_through_the_checks(self, monkeypatch):
        checked = []
        real = TransitionMatrix._set_rows

        def spy(self, rows):
            checked.append(rows)
            real(self, rows)

        monkeypatch.setattr(TransitionMatrix, "_set_rows", spy)
        # A call of _trusted would fail.
        monkeypatch.setattr(TransitionMatrix, "_trusted", None)
        witness = find_witness(PRIOR, TARGET)
        assert checked == [witness._integer_rows]


def _spread(rng, dist):
    """A mean-preserving spread of ``dist``: half of one atom's mass moves down by some delta, half up by it."""
    atom = dist.atoms[rng.randrange(dist.cols)]
    delta = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    masses = dict(zip(dist.atoms, dist.weights))
    half = masses.pop(atom) / 2
    for x in (atom - delta, atom + delta):
        masses[x] = masses.get(x, 0) + half
    atoms = sorted(masses)
    return DiscreteDistribution(tuple(atoms), tuple(masses[x] for x in atoms))


def _pairs(rng, n, m):
    """Four pairs, by kind, built on one garbling of n source atoms onto m columns."""
    triple = random_smpc(rng, n, m)
    source, target = triple.source, triple.target
    yield "reversed", target, source
    yield "mean-shifted", source, perturb_mean(rng, target)
    yield "spread", source, _spread(rng, target)
    yield "unrelated", random_distribution(rng, n), random_distribution(rng, m)


def test_the_builder_refuses_every_non_contraction():
    # The persuasion solve runs _left_curtain with no order decision first,
    # so on a pair that is no contraction it must raise InternalError: never
    # return, and never raise anything else.
    rng = Random(32)
    refused = Counter()
    for _ in range(3):
        for n in range(1, 8):
            for m in range(1, 10):
                for kind, source, target in _pairs(rng, n, m):
                    if distributions.mpc_violation(source, target) is None:
                        continue
                    with pytest.raises(InternalError):
                        distributions._left_curtain(source, target)
                    refused[kind] += 1
    assert min(refused.values()) > 50 and len(refused) == 4


def _assert_same_as_reference(source, target):
    """The integer sweeps give the reference's reason and integer rows, in both orders."""
    for a, b in ((source, target), (target, source)):
        assert distributions.mpc_violation(a, b) == reference.mpc_violation(a, b)
        ours, theirs = find_witness(a, b), reference.find_witness(a, b)
        assert (ours is None) is (theirs is None)
        if ours is not None:
            assert type(ours) is TransitionMatrix
            assert ours._integer_rows == theirs._integer_rows


NEGATIVE = dist(["-3", "-1/2", "2"], ["1/4", "1/2", "1/4"])


class TestIntegerSweeps:
    """``mpc_violation`` and ``find_witness`` against their earlier ``Fraction`` versions."""

    @pytest.mark.parametrize(
        "source, target",
        [
            (PRIOR, TARGET),
            (SPREAD, POOLED),
            (dist(["-1", "0", "1"], ["1/3", "1/3", "1/3"]), dist(["-1", "0", "1"], ["1/6", "2/3", "1/6"])),
            (NEGATIVE, apply_transition(NEGATIVE, tm([["1/2", "1/2", "0"], ["1/3", "1/3", "1/3"], ["0", "1/5", "4/5"]])).target),
            (PRIOR, SHIFTED),
        ],
        ids=["worked pair", "point mass", "tied and shared atoms", "negative atoms", "mean mismatch"],
    )
    def test_cases(self, source, target):
        _assert_same_as_reference(source, target)

    def test_prime_denominators_rescale_the_mass_denominator(self, monkeypatch):
        factors = []
        real = distributions._shadow

        def spy(*args):
            k, taken = real(*args)
            factors.append(k)
            return k, taken

        monkeypatch.setattr(distributions, "_shadow", spy)
        triple = _prime_denominator_pair(20, 30, seed=5)
        _assert_same_as_reference(triple.source, triple.target)
        assert len(factors) == 30 and max(factors) > 1

    def test_seeded_pairs(self):
        rng = Random(19)
        for n, m in ((1, 1), (1, 4), (2, 3), (3, 4), (4, 8), (6, 10), (10, 16), (20, 30), (40, 60), (60, 100)):
            for _ in range(3 if n * m < 1000 else 1):
                triple = random_smpc(rng, n, m)
                source, target = triple.source, triple.target
                shifted = DiscreteDistribution(target.atoms[:-1] + (target.atoms[-1] + Fraction(1, 3),), target.weights)
                _assert_same_as_reference(source, target)
                _assert_same_as_reference(source, shifted)
        for n, m, seed in ((3, 4, 1), (8, 12, 2), (60, 100, 3)):
            triple = _prime_denominator_pair(n, m, seed)
            _assert_same_as_reference(triple.source, triple.target)

    @PROFILE
    @given(garblings(), st.integers(1, 9))
    def test_generated_pairs(self, triple, shift):
        source, target = triple.source, triple.target
        shifted = DiscreteDistribution(target.atoms[:-1] + (target.atoms[-1] + Fraction(1, shift),), target.weights)
        for pair in ((source, target), (source, shifted), (source, source)):
            _assert_same_as_reference(*pair)
