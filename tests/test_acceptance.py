"""Acceptance suite: one test per release criterion, each printing a verdict.

Every expected value is an exact rational; there are no tolerances anywhere.
Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
while everything passes.
"""

import time
from fractions import Fraction
from random import Random

from mpcmix import (
    SmpcTriple,
    check_no_profitable_deviation,
    decompose_full,
    find_witness,
    is_mpc,
    solve_linear_persuasion,
    split_once,
    verify_uniqueness,
    zero_column,
)
from mpcmix import lp
from mpcmix.errors import EntryRangeError
from mpcmix.linalg import Matrix
from mpcmix.persuasion import PiecewiseLinearFn
from mpcmix.randgen import random_distribution

from cases import (
    ALPHA,
    DUEL_CDF,
    DUEL_PRIOR,
    DUEL_VALUE,
    LEFT_EMBEDDED,
    LEFT_TARGET,
    RIGHT_EMBEDDED,
    RIGHT_TARGET,
    embedded,
    mean,
    worked_triple,
)
from lp_fraction_reference import reference_solve
from lp_oracle import oracle_solve
from persuasion_lp_reference import deviation_payoff, evaluate, knots, weight_lp
from random_instances import perturb_mean, random_lp, random_piecewise_linear, random_smpc, random_split_instance


def _verdict(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS [{detail}]")


def test_criterion_1_worked_split_regression():
    started = time.perf_counter()
    triple = worked_triple()
    result = split_once(triple)
    assert result.certificate.alpha == ALPHA
    c = result.certificate.coefficients
    assert zero_column(triple.transition, c, result.certificate.j_star) == LEFT_EMBEDDED
    assert zero_column(triple.transition, c, result.certificate.j_star_star) == RIGHT_EMBEDDED
    assert result.left.target == LEFT_TARGET
    assert result.right.target == RIGHT_TARGET
    mixture = decompose_full(triple)
    assert [(w, comp.target) for w, comp in mixture.components] == [
        (Fraction(4, 7), LEFT_TARGET),
        (Fraction(3, 7), RIGHT_TARGET),
    ]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _verdict(1, "worked split regression", f"alpha=4/7, {elapsed:.3f}s")


def test_criterion_2_recomposition_identity():
    started = time.perf_counter()
    rng = Random(20240)
    checked = 0
    for _ in range(1000):
        n = rng.randint(2, 6)
        m = rng.randint(2, 10)
        triple = random_smpc(rng, n, m)
        mixture = decompose_full(triple)
        assert mixture.recompose() == triple
        # The same identity summed here, independently of recompose.
        total = [[Fraction(0)] * len(triple.target.atoms) for _ in range(n)]
        for weight, component in mixture.components:
            assert len(component.target.atoms) <= n
            SmpcTriple(component.source, component.transition, component.target)
            placed = embedded(component, triple.target.atoms)
            for i in range(n):
                row = placed[i]
                for j in range(len(row)):
                    total[i][j] += weight * row[j]
        assert Matrix(tuple(tuple(r) for r in total)) == Matrix(triple.transition.entries)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _verdict(2, "recomposition identity", f"{checked} instances, {elapsed:.2f}s")


def test_criterion_3_unique_zeroable_pair():
    rng = Random(777)
    for _ in range(500):
        triple = random_split_instance(rng, rng.randint(2, 5))
        m = len(triple.target.atoms)
        c = split_once(triple).certificate.coefficients
        zeroable = []
        for j in range(m):
            try:
                zero_column(triple.transition, c, j)
                zeroable.append(j)
            except EntryRangeError:
                continue
        assert len(zeroable) == 2
        report = verify_uniqueness(triple)
        assert report.zeroable == tuple(zeroable)
        assert report.pair == tuple(zeroable)
    worked = verify_uniqueness(worked_triple())
    assert tuple(j + 1 for j in worked.pair) == (3, 4)  # 1-based column labels
    _verdict(3, "unique zeroable pair", "500 instances, worked pair = columns 3 and 4")


def test_criterion_4_witness_order_duality():
    rng = Random(4242)
    positives = negatives = 0
    for _ in range(250):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        triple = random_smpc(rng, n, m)
        source, target = triple.source, triple.target
        witness = find_witness(source, target)
        assert is_mpc(source, target)
        assert witness is not None
        SmpcTriple(source, witness, target)
        positives += 1
        broken = perturb_mean(rng, target)
        assert not is_mpc(source, broken)
        assert find_witness(source, broken) is None
        negatives += 1
    _verdict(4, "witness/order duality", f"{positives} positives, {negatives} negatives")


def test_criterion_5_small_support_optima():
    rng = Random(5150)
    kinked = affine = 0
    for k in range(200):
        n = rng.randint(2, 4)
        source = random_distribution(rng, n)
        lo, hi = source.atoms[0], source.atoms[-1]
        if k % 5 < 3:
            utility = random_piecewise_linear(rng, lo, hi, interior=rng.randint(1, 2))
            kinked += 1
        else:
            utility = PiecewiseLinearFn(
                (
                    (lo, Fraction(rng.randint(-8, 8), rng.randint(1, 3))),
                    (hi, Fraction(rng.randint(-8, 8), rng.randint(1, 3))),
                )
            )
            affine += 1
        candidates = sorted(set(source.atoms) | {x for x, _ in knots(utility)})
        solution = solve_linear_persuasion(source, utility, candidates)
        assert solution.candidates_exact
        assert len(solution.optimum.target.atoms) <= n
        assert utility.expectation(solution.optimum.target) >= solution.value
        if len(knots(utility)) == 2:
            assert solution.value == evaluate(utility, mean(source))
    _verdict(5, "small-support optima", f"{kinked} kinked + {affine} affine instances")


def test_criterion_6_duel_equilibrium_verification():
    started = time.perf_counter()
    check = check_no_profitable_deviation(
        DUEL_PRIOR, DUEL_CDF, DUEL_VALUE, DUEL_PRIOR.atoms
    )
    assert check.max_payoff == Fraction(1, 2)
    assert not check.profitable
    assert deviation_payoff(DUEL_PRIOR, DUEL_CDF) == Fraction(1, 2)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _verdict(6, "duel equilibrium verification", f"max payoff 1/2, {elapsed:.3f}s")


def test_criterion_7_simplex_equals_enumeration():
    # General programs have no known vertex: the reference's phase 1 finds one.
    rng = Random(70707)
    optimal = infeasible = 0
    for _ in range(300):
        problem = random_lp(rng)
        assert problem.constraint_matrix.cols + problem.constraint_matrix.rows <= 8
        outcome = reference_solve(problem)
        status, value, _ = oracle_solve(problem)
        assert outcome.status == status
        if status == "optimal":
            assert outcome.value == value
            optimal += 1
        else:
            infeasible += 1
    # The persuasion LP, started at full disclosure, as the package solves it.
    rng = Random(70708)
    started = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        source = random_smpc(rng, n, n).source
        lo, hi = source.atoms[0], source.atoms[-1]
        u = random_piecewise_linear(rng, lo - 1, hi + 1, rng.randint(1, 3))
        candidates = sorted(set(source.atoms) | {x for x, _ in knots(u) if lo < x < hi})
        problem, start = weight_lp(source, u, candidates)
        outcome = lp.solve(problem, start=start)
        status, value, _ = oracle_solve(problem)
        assert outcome.status == status == "optimal"
        assert outcome.value == value
        started += 1
    _verdict(
        7,
        "simplex equals enumeration",
        f"{started} started persuasion LPs; {optimal} optimal, {infeasible} infeasible general LPs",
    )
