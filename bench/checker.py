"""Exact checks of mpcmix CLI outputs, in plain ``fractions.Fraction`` code.

Nothing here imports mpcmix, so a fault in the package cannot also hide
itself in its own check. Each ``check_*`` function takes the input payload the
CLI was given and the JSON it wrote, and raises ``CheckError`` on the first
property that fails. A distribution is an ``(atoms, weights)`` pair of tuples
and a matrix is a list of row tuples.
"""

from __future__ import annotations

import copy
from fractions import Fraction


class CheckError(Exception):
    """An output that contradicts an exact property it must satisfy."""


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def parse_dist(obj):
    return tuple(Fraction(a) for a in obj["atoms"]), tuple(Fraction(w) for w in obj["weights"])


def parse_rows(obj):
    return [tuple(Fraction(x) for x in row) for row in obj["rows"]]


def dist_json(dist):
    atoms, weights = dist
    return {"atoms": [str(a) for a in atoms], "weights": [str(w) for w in weights]}


def rows_json(rows):
    return {"rows": [[str(x) for x in row] for row in rows]}


def mean(dist):
    return sum(a * w for a, w in zip(*dist))


def garble(source, rows):
    """Target of ``source`` pushed through ``rows``, and the matching transition.

    Zero-mass columns are dropped, columns with equal barycenters are summed,
    and atoms come out sorted, which is the documented output of ``apply``.
    """
    atoms, weights = source
    n = len(atoms)
    cells = {}
    for j in range(len(rows[0])):
        column = [rows[i][j] for i in range(n)]
        mass = sum(weights[i] * column[i] for i in range(n))
        if mass == 0:
            continue
        barycenter = sum(weights[i] * atoms[i] * column[i] for i in range(n)) / mass
        if barycenter in cells:
            old_mass, old_column = cells[barycenter]
            cells[barycenter] = (old_mass + mass, [x + y for x, y in zip(old_column, column)])
        else:
            cells[barycenter] = (mass, column)
    order = sorted(cells)
    target = (tuple(order), tuple(cells[b][0] for b in order))
    grid = [tuple(cells[b][1][i] for b in order) for i in range(n)]
    return target, grid


def check_distribution(dist, label):
    atoms, weights = dist
    _require(atoms and len(atoms) == len(weights), f"{label}: atoms and weights differ in length")
    _require(all(x < y for x, y in zip(atoms, atoms[1:])), f"{label}: atoms not increasing")
    _require(all(w > 0 for w in weights), f"{label}: nonpositive weight")
    _require(sum(weights) == 1, f"{label}: weights do not sum to 1")


def check_triple(source, rows, target, label):
    """Row-stochastic entries in [0, 1] plus the weight and barycenter identities."""
    check_distribution(target, label + " target")
    (a, p), (b, q) = source, target
    n, m = len(a), len(b)
    _require(len(rows) == n and all(len(row) == m for row in rows), f"{label}: transition is not {n}x{m}")
    for i, row in enumerate(rows):
        _require(all(0 <= x <= 1 for x in row), f"{label}: row {i} has an entry outside [0, 1]")
        _require(sum(row) == 1, f"{label}: row {i} does not sum to 1")
    for j in range(m):
        mass = sum(p[i] * rows[i][j] for i in range(n))
        moment = sum(p[i] * a[i] * rows[i][j] for i in range(n))
        _require(mass == q[j], f"{label}: weight identity fails at column {j}")
        _require(moment == q[j] * b[j], f"{label}: barycenter identity fails at column {j}")


def convex_order(source, candidate):
    """Is ``candidate`` a mean-preserving contraction of ``source``?

    One merged sweep over the atoms of both: the integrated cdf at t is
    t * (mass below t) - (first moment below t), and the candidate's must stay
    weakly below the source's at every atom once the means agree.
    """
    if mean(source) != mean(candidate):
        return False
    events = sorted([(a, w, 0) for a, w in zip(*source)] + [(a, w, 1) for a, w in zip(*candidate)])
    mass = [Fraction(0), Fraction(0)]
    moment = [Fraction(0), Fraction(0)]
    k = 0
    while k < len(events):
        t = events[k][0]
        if t * mass[1] - moment[1] > t * mass[0] - moment[0]:
            return False
        while k < len(events) and events[k][0] == t:
            _, w, side = events[k]
            mass[side] += w
            moment[side] += w * t
            k += 1
    return True


def check_mixture(source, target, mixture):
    """A decompose output against its input; returns the component count."""
    _require(parse_dist(mixture["source"]) == source, "mixture source differs from the input")
    components = mixture["components"]
    _require(components, "mixture has no components")
    n = len(source[0])
    keys = []
    recomposed = {}
    total = Fraction(0)
    for k, entry in enumerate(components):
        weight = Fraction(entry["weight"])
        _require(weight > 0, f"component {k} weight is not positive")
        total += weight
        part = parse_dist(entry["target"])
        rows = parse_rows(entry["transition"])
        _require(len(part[0]) <= n, f"component {k} has more than {n} atoms")
        check_triple(source, rows, part, f"component {k}")
        for atom, w in zip(*part):
            recomposed[atom] = recomposed.get(atom, Fraction(0)) + weight * w
        keys.append((-weight, part[0], tuple(rows)))
    _require(total == 1, "component weights do not sum to 1")
    _require(recomposed == dict(zip(*target)), "components do not recompose to the target")
    # Documented order: descending weight, then atoms, then entries; equal
    # components are coalesced, so the keys increase strictly.
    _require(all(x < y for x, y in zip(keys, keys[1:])), "components out of the documented order")
    return len(components)


def check_decompose(payload, out):
    source = parse_dist(payload["source"])
    rows = parse_rows(payload["transition"])
    if "target" in payload:
        target = parse_dist(payload["target"])
    else:
        target, _ = garble(source, rows)
    return check_mixture(source, target, out)


def check_find_witness(payload, out):
    source, target = parse_dist(payload["source"]), parse_dist(payload["target"])
    expected = convex_order(source, target)
    if out["witness"] is None:
        _require(not expected, "no witness returned for a contraction")
    else:
        _require(expected, "witness returned for a pair that is not a contraction")
        check_triple(source, parse_rows(out["witness"]), target, "witness")


def check_is_mpc(payload, out):
    verdict = convex_order(parse_dist(payload["source"]), parse_dist(payload["target"]))
    _require(out["is_mpc"] is verdict, f"is_mpc is {out['is_mpc']}, the sweep says {verdict}")
    _require(verdict or isinstance(out.get("reason"), str), "negative verdict without a reason")


def check_verify_smpc(payload, out):
    _require(out == {"valid": True}, f"verify-smpc returned {out}")


def check_apply(payload, out):
    source = parse_dist(payload["source"])
    target, grid = garble(source, parse_rows(payload["transition"]))
    _require(parse_dist(out["source"]) == source, "apply changed the source")
    _require(parse_dist(out["target"]) == target, "apply target differs from the exact garbling")
    _require(parse_rows(out["transition"]) == grid, "apply transition differs from the merged columns")


def evaluate(knots, x):
    """Linear interpolation between knots; ``x`` must lie in their range."""
    _require(knots[0][0] <= x <= knots[-1][0], f"{x} outside the knots")
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise CheckError("unreachable interpolation")


def expectation(knots, dist):
    return sum(w * evaluate(knots, a) for a, w in zip(*dist))


def concave_envelope(knots, lo, hi, x):
    """Smallest concave majorant of the interpolant on [lo, hi], at x."""
    points = [(t, evaluate(knots, t)) for t in sorted({lo, hi} | {k for k, _ in knots if lo < k < hi})]
    best = None
    for x0, y0 in points:
        for x1, y1 in points:
            if x0 <= x <= x1:
                y = y0 if x0 == x1 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)
                best = y if best is None else max(best, y)
    return best


def _parse_knots(obj):
    return [(Fraction(x), Fraction(y)) for x, y in obj["knots"]]


def _check_optimum_bounds(source, knots, candidates, value, label):
    """E_prior[u] and u(mean) (when the mean is a candidate) <= value <= cav u(mean)."""
    mu = mean(source)
    lower = expectation(knots, source)
    if mu in candidates:
        lower = max(lower, evaluate(knots, mu))
    upper = concave_envelope(knots, source[0][0], source[0][-1], mu)
    _require(lower <= value <= upper, f"{label} {value} outside [{lower}, {upper}]")


def check_solve_persuasion(payload, out):
    """Returns the component count of the reported certificate mixture."""
    source = parse_dist(payload["source"])
    knots = _parse_knots(payload["utility"])
    candidates = {Fraction(x) for x in payload["candidates"]}
    n = len(source[0])
    value = Fraction(out["value"])
    optimum = out["optimum"]
    _require(parse_dist(optimum["source"]) == source, "optimum source differs from the prior")
    optimum_target = parse_dist(optimum["target"])
    check_triple(source, parse_rows(optimum["transition"]), optimum_target, "optimum")
    _require(set(optimum_target[0]) <= candidates, "optimum uses an atom off the candidate grid")
    reduced = out["reduced"]
    _require(parse_dist(reduced["source"]) == source, "reduced source differs from the prior")
    reduced_target = parse_dist(reduced["target"])
    check_triple(source, parse_rows(reduced["transition"]), reduced_target, "reduced")
    _require(len(reduced_target[0]) <= n, f"reduced triple has more than {n} atoms")
    _require(value == expectation(knots, optimum_target), "value is not E[u] over the optimum")
    _require(expectation(knots, reduced_target) >= value, "reduced triple is worse than value")
    _check_optimum_bounds(source, knots, candidates, value, "value")
    lo, hi = source[0][0], source[0][-1]
    exact = all(x in candidates for x, _ in knots if lo < x < hi)
    _require(out["candidates_exact"] is exact, "candidates_exact is wrong")
    return check_mixture(source, optimum_target, out["certificate"])


def check_deviation(payload, out, max_payoff=None):
    source = parse_dist(payload["source"])
    knots = _parse_knots(payload["opponent_cdf"])
    lo, hi = source[0][0], source[0][-1]
    candidates = {Fraction(x) for x in payload["candidates"]} | {x for x, _ in knots if lo <= x <= hi}
    payoff = Fraction(out["max_payoff"])
    equilibrium = Fraction(out["equilibrium_value"])
    _require(equilibrium == Fraction(payload["equilibrium_value"]), "equilibrium_value was changed")
    _require(out["profitable"] is (payoff > equilibrium), "profitable disagrees with the payoffs")
    witness = out["witness"]
    _require(parse_dist(witness["source"]) == source, "witness source differs from the prior")
    witness_target = parse_dist(witness["target"])
    check_triple(source, parse_rows(witness["transition"]), witness_target, "witness")
    _require(len(witness_target[0]) <= len(source[0]), "witness has more atoms than the prior")
    _require(expectation(knots, witness_target) == payoff, "witness does not attain max_payoff")
    _check_optimum_bounds(source, knots, candidates, payoff, "max_payoff")
    if max_payoff is not None:
        _require(payoff == Fraction(max_payoff), f"max_payoff is {payoff}, expected {max_payoff}")


def check(command, payload, out, expect):
    """Check one output; returns its mixture component count, or None."""
    try:
        if command == "decompose":
            return check_decompose(payload, out)
        if command == "solve-persuasion":
            return check_solve_persuasion(payload, out)
        if command == "check-deviation":
            check_deviation(payload, out, expect.get("max_payoff"))
        elif command == "find-witness":
            check_find_witness(payload, out)
        elif command == "is-mpc":
            check_is_mpc(payload, out)
        elif command == "verify-smpc":
            check_verify_smpc(payload, out)
        elif command == "apply":
            check_apply(payload, out)
        else:
            raise CheckError(f"no check for command {command!r}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"malformed {command} output: {exc!r}") from exc
    return None


# Fixed inputs for the self-test: the worked four-atom split and a small
# persuasion instance whose optimum is not full disclosure.
_PRIOR = {"atoms": ["0", "1/2", "1"], "weights": ["3/10", "3/10", "2/5"]}
_GARBLING = {"rows": [["2/3", "1/3", "0", "0"], ["1/3", "0", "1/3", "1/3"], ["0", "1/4", "1/4", "1/2"]]}
_TARGET = {"atoms": ["1/6", "1/2", "3/4", "5/6"], "weights": ["3/10", "1/5", "1/5", "3/10"]}
_UTILITY = {"knots": [["0", "0"], ["1/2", "1"], ["1", "0"]]}


def _bump_weight(out):
    out["components"][0]["weight"] = str(Fraction(out["components"][0]["weight"]) + Fraction(1, 1000))


def _unbalance_row(out):
    row = out["witness"]["rows"][0]
    row[0] = str(Fraction(row[0]) + Fraction(1, 2)) if Fraction(row[0]) < Fraction(1, 2) else "0"


def _flip_verdict(out):
    out["is_mpc"] = not out["is_mpc"]


def _shift_value(out):
    out["value"] = str(Fraction(out["value"]) + Fraction(1, 1000))


SELF_TEST_CASES = (
    ("decompose", {"source": _PRIOR, "transition": _GARBLING}, _bump_weight),
    ("find-witness", {"source": _PRIOR, "target": _TARGET}, _unbalance_row),
    ("is-mpc", {"source": _PRIOR, "target": _TARGET}, _flip_verdict),
    ("solve-persuasion", {"source": _PRIOR, "utility": _UTILITY, "candidates": ["0", "1/2", "11/20", "1"]}, _shift_value),
)


def self_test(outputs):
    """Problems found when checking ``outputs`` of ``SELF_TEST_CASES``, in order.

    The genuine output of each case must pass and the corrupted copy must be
    rejected; an empty list means the checker can tell them apart.
    """
    problems = []
    for (command, payload, corrupt), out in zip(SELF_TEST_CASES, outputs):
        try:
            check(command, payload, out, {})
        except CheckError as exc:
            problems.append(f"{command}: genuine output rejected: {exc}")
            continue
        bad = copy.deepcopy(out)
        corrupt(bad)
        try:
            check(command, payload, bad, {})
        except CheckError:
            continue
        problems.append(f"{command}: corrupted output ({corrupt.__name__}) accepted")
    return problems
