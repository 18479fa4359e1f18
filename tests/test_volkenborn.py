import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import pytest

from composition_kernel import composition_weights
from fraction_stage_sum import fraction_stage_sum
from qsym.qbernoulli import (
    DegenerateWeightError,
    beta_higher,
    beta_number,
    beta_weighted,
    weights,
)
import qsym.volkenborn as volkenborn_mod
from qsym.ratfun import QsymDomainError, ResourceLimitError, eval_rational
from qsym.volkenborn import (
    PSI_13,
    PadicContext,
    convergence_report,
    default_q0,
    is_prime,
    p_valuation,
    riemann_sum_multi,
    riemann_sum_weighted,
)


def bracket(t, q0):
    return (1 - q0**t) / (1 - q0)


def riemann_brute(n, x, q0, m, exps):
    """Plain tuple enumeration of the stage sum, as an independent oracle."""
    total = Fraction(0)
    for yt in itertools.product(range(m), repeat=len(exps)):
        weight = q0 ** sum(c * y for c, y in zip(exps, yt))
        total += bracket(x + sum(yt), q0) ** n * weight
    return total / bracket(m, q0) ** len(exps)


def riemann_kernel(n, x, q0, m, exps):
    """The stage sum walked over s = 0..r(m-1): composition_weights groups the
    tuples by s = sum y.  O(r^2 m) Fraction operations; the closed form's oracle."""
    weights = composition_weights([q0**c for c in exps], m)
    total = sum(ws * bracket(x + s, q0) ** n for s, ws in enumerate(weights))
    return total / bracket(m, q0) ** len(exps)


# (p, q0): p = 2, the default q0, a fractional q0 and a negative q0.
ORACLE_CONTEXTS = [(2, None), (3, Fraction(-2)), (5, Fraction(7, 2)), (7, None)]


@pytest.mark.parametrize("p, q0", ORACLE_CONTEXTS)
def test_closed_form_matches_kernel_and_brute_force(p, q0):
    ctx = PadicContext(p=p, q0=q0, Nmax=3)
    for n, r, x, N in itertools.product(range(5), (1, 2, 3), (-2, 0, 1), (1, 2, 3)):
        m = p**N
        if m > 27 or m**r > 729:
            continue
        # Below the degenerate band -n <= h <= r-1, its two edges (each with an
        # e = 0 window m + c_k = 0), and above it.
        hs = (-n - 2, -n - 1, -n, r - 1, r)
        cases = [(tuple([1] * r), riemann_sum_multi(n, r, x, ctx, N))]
        cases += [(tuple(range(h, h - r, -1)), riemann_sum_weighted(n, h, r, x, ctx, N))
                  for h in hs]
        for exps, value in cases:
            assert value == riemann_kernel(n, x, ctx.q0, m, exps), (n, r, x, N, exps)
            if m**r <= 64:
                assert value == riemann_brute(n, x, ctx.q0, m, exps), (n, r, x, N, exps)


# The default q0 at each p, then a fractional q0 on each side of 1 and a negative one.
INTEGER_ORACLE_CONTEXTS = [(2, None), (3, None), (5, None), (7, None),
                           (3, Fraction(4, 7)), (5, Fraction(7, 2)), (7, Fraction(1, 8)),
                           (5, Fraction(-4))]


@pytest.mark.parametrize("p, q0", INTEGER_ORACLE_CONTEXTS)
def test_integer_stage_sum_matches_the_fraction_form(p, q0):
    # Exponent ranges with windows e > 0, e = 0 and e < 0, ascending and descending;
    # the raised budget admits every point of the grid.
    ctx = PadicContext(p=p, q0=q0, Nmax=3, budget=10**40)
    grid = itertools.product((0, 1, 3), (-2, 0, 1, 3),
                             (range(1, 2), range(-1, 2), range(-3, 0), range(2, -1, -1)),
                             (1, 2, 3), (1, 2, 3))
    for n, x, exps, mult, N in grid:
        expected = fraction_stage_sum(n, x, ctx.q0, p**N, exps, mult)
        assert Fraction(*volkenborn_mod._riemann_sum(n, x, ctx, N, exps, mult)) == expected, \
            (n, x, exps, mult, N)


# Deeper stages with a zero window at m = 0 and 1 only (range(-1, 2) at n = 3),
# and q0 with b != 1 on each side of 1.
DEEP_ORACLE_CONTEXTS = [(2, None), (2, Fraction(1, 5)), (3, None), (3, Fraction(7, 4))]


@pytest.mark.parametrize("p, q0", DEEP_ORACLE_CONTEXTS)
def test_deep_integer_stage_sum_matches_the_fraction_form(p, q0):
    ctx = PadicContext(p=p, q0=q0, Nmax=5, budget=10**40)
    for exps, mult, N in itertools.product((range(-1, 2), range(1, 2)), (1, 2), (4, 5)):
        expected = fraction_stage_sum(3, -1, ctx.q0, p**N, exps, mult)
        assert Fraction(*volkenborn_mod._riemann_sum(3, -1, ctx, N, exps, mult)) == expected, \
            (exps, mult, N)


# q0 = a/b with b != 1 at each p: below 1, above 1 and negative.
RESIDUE_CONTEXTS = [(2, Fraction(1, 5), 3), (3, Fraction(4, 7), 3), (5, Fraction(-4, 11), 2),
                    (7, Fraction(1, 8), 2)]


def residue_cases():
    """(family, params) for n <= 5, r <= 3, x in {-2, 0, 1}, h in {r, r+3, -n-1}."""
    for n, x in itertools.product(range(6), (-2, 0, 1)):
        yield "single", {"n": n, "x": x}
        for r in (1, 2, 3):
            yield "multi", {"n": n, "r": r, "x": x}
            for h in (r, r + 3, -n - 1):
                yield "weighted", {"n": n, "h": h, "r": r, "x": x}


@pytest.mark.parametrize("p, q0", INTEGER_ORACLE_CONTEXTS
                         + [(p, q0) for p, q0, _ in RESIDUE_CONTEXTS])
def test_report_valuations_match_the_fraction_path(p, q0):
    # convergence_report reads each valuation from the kernel mod p^K; the
    # Fraction form of the stage minus the closed form's RatFun value at q0,
    # neither of which shares code with the kernel, must give the same points.
    ctx = PadicContext(p=p, q0=q0, Nmax=3, budget=10**40)
    cases = [("multi", n, r, None, x)
             for n, r, x in itertools.product((0, 1, 3), (1, 2), (-1, 0, 2))]
    cases += [("weighted", n, r, h, x) for n, r, x in itertools.product((0, 2), (1, 2), (-1, 1))
              for h in (-n - 1, r, r + 2)]
    for family, n, r, h, x in cases:
        if family == "weighted":
            exps, mult = range(h, h - r, -1), 1
            closed = beta_weighted(n, h, r, 1, x).evaluate(ctx.q0)
            params = {"n": n, "h": h, "r": r, "x": x}
        else:
            exps, mult = range(1, 2), r
            closed = beta_higher(n, r, 1, x).evaluate(ctx.q0)
            params = {"n": n, "r": r, "x": x}
        want = [(N, p_valuation(fraction_stage_sum(n, x, ctx.q0, p**N, exps, mult) - closed, p))
                for N in (1, 2, 3)]
        assert convergence_report(family, params, ctx).points == want, (family, params)


def spy_exact_stages(monkeypatch, p) -> list:
    """Patch _stage_sum to log N for each exact evaluation at M = p^N, the exact
    stage (mod None, M > 0)."""
    calls, kernel = [], volkenborn_mod._stage_sum

    def spy(table, size, mod=None):
        if mod is None and size > 0:
            calls.append(round(math.log(size, p)))
        return kernel(table, size, mod)

    monkeypatch.setattr(volkenborn_mod, "_stage_sum", spy)
    return calls


# Integer, negative and fractional q0 at the least distance from 1 that
# PadicContext admits, t = v_p(1 - q0) = 2 at p = 2, else 1; then q0 nearer 1,
# where the n t term of the floor grows: t = 4 at q0 = 17, 2 at 10 and 26.
FLOOR_CONTEXTS = [(2, Fraction(5)), (2, Fraction(-3)), (2, Fraction(13)), (3, Fraction(4)),
                  (3, Fraction(-2)), (3, Fraction(7, 4)), (5, Fraction(6)), (5, Fraction(11, 6)),
                  (7, Fraction(8)), (2, Fraction(17)), (3, Fraction(10)), (5, Fraction(26))]


@pytest.mark.parametrize("p, q0", FLOOR_CONTEXTS)
def test_every_report_point_clears_the_proved_floor(p, q0):
    # v_p(S_N - beta) >= N + t - n t - D at every N, t = v_p(1 - q0) and D the
    # largest sum over k of v_p(m + c_k), m = 0..n, each c_k counted mult times:
    # S_N - beta = P(Q_N) - P(1) for a Laurent polynomial P in Q = q0^(p^N),
    # v_p(Q_N - 1) = N + t by lifting the exponent, and the window factors
    # (1 - q0)^(r - n) / prod_k (1 - q0^(m + c_k)) lose at most n t + D.  The
    # floor shares only c with the kernel and the closed form.
    ctx = PadicContext(p=p, q0=q0, Nmax=3, budget=10**40)
    t = p_valuation(1 - q0, p)
    points = 0
    for n, x in itertools.product(range(6), (-2, 0, 1, 3)):
        cases = [("single", {"n": n, "x": x}, 1, None)]
        for r in (1, 2, 3):
            cases.append(("multi", {"n": n, "r": r, "x": x}, r, None))
            cases += [("weighted", {"n": n, "h": h, "r": r, "x": x}, r, h)
                      for h in (r, r + 2, -n - 1)]
        for family, params, r, h in cases:
            exps, mult = weights(r, h)
            D = max(sum(mult * p_valuation(m + c, p) for c in exps) for m in range(n + 1))
            for N, v in convergence_report(family, params, ctx).points:
                assert v >= N + t - n * t - D, (family, params, N, v)
                points += 1
    assert points == 936  # 312 reports of 3 points each: no report is refused


@pytest.mark.parametrize("p, q0, nmax", RESIDUE_CONTEXTS)
def test_residue_valuations_match_the_exact_stage(monkeypatch, p, q0, nmax):
    # Each point against the exact rational stage minus the closed value; only
    # the points where S_N equals it ("inf") may come from the exact stage.
    ctx = PadicContext(p=p, q0=q0, Nmax=nmax)
    want = []
    for family, params in residue_cases():
        n, x = params["n"], params["x"]
        r, h = params.get("r", 1), params.get("h")
        exps, mult = (range(1, 2), r) if h is None else (range(h, h - r, -1), 1)
        table = volkenborn_mod._stage_table(n, x, ctx.q0, exps, mult)
        closed = Fraction(*volkenborn_mod._stage_sum(table, 0))
        stages = [riemann_sum_weighted(n, h, r, x, ctx, N) if h is not None
                  else riemann_sum_multi(n, r, x, ctx, N) for N in range(1, nmax + 1)]
        want.append([(N, p_valuation(s - closed, p)) for N, s in enumerate(stages, 1)])
    calls = spy_exact_stages(monkeypatch, p)
    assert [convergence_report(family, params, ctx).points
            for family, params in residue_cases()] == want
    assert len(calls) == sum(v == math.inf for points in want for _, v in points) > 0


@pytest.mark.parametrize("p, q0, nmax", RESIDUE_CONTEXTS)
def test_vanishing_residues_fall_back_to_the_exact_stage(monkeypatch, p, q0, nmax):
    ctx = PadicContext(p=p, q0=q0, Nmax=nmax)
    want = [convergence_report(family, params, ctx).points for family, params in residue_cases()]
    # With no digits past Nmax a residue vanishes exactly where S_N agrees with
    # the closed value to Nmax digits, so those points, and only they, come from
    # the exact stage; some of them are finite.
    monkeypatch.setattr(volkenborn_mod, "_RESIDUE_DIGITS", 0)
    calls = spy_exact_stages(monkeypatch, p)
    got = [convergence_report(family, params, ctx).points for family, params in residue_cases()]
    assert got == want
    assert calls == [N for points in want for N, v in points if v >= nmax]
    assert any(nmax <= v < math.inf for points in want for _, v in points)


# Reports whose scale and closed-value denominator hold 64 or more factors of p
# (the scale holds (b - a)^(n - r), so 2^(2 (n - r)) at p = 2, q0 = 5), with their
# points as the exact stages give them.
DEEP_SCALE_REPORTS = [
    ("single", {"n": 40}, 2, 6, [(1, 4), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8)], True),
    ("multi", {"n": 60, "r": 2}, 2, 6, [(1, 1), (2, 5), (3, 4), (4, 5), (5, 6), (6, 7)], False),
    ("weighted", {"n": 80, "h": 3, "r": 2}, 2, 5, [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)], True),
    ("single", {"n": 70}, 3, 6, [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)], True),
    ("single", {"n": 100}, 2, 4, [(1, 3), (2, 3), (3, 4), (4, 5)], True),
]


@pytest.mark.parametrize("family, params, p, nmax, points, monotone", DEEP_SCALE_REPORTS)
def test_deep_scale_reports_read_every_stage_from_residues(monkeypatch, family, params, p,
                                                           nmax, points, monotone):
    calls = spy_exact_stages(monkeypatch, p)
    rep = convergence_report(family, params, PadicContext(p=p, Nmax=nmax))
    assert (rep.points, rep.monotone) == (points, monotone)
    assert calls == []


def test_only_an_undecided_residue_builds_the_exact_stage(monkeypatch):
    calls = spy_exact_stages(monkeypatch, 5)
    ctx = PadicContext(p=5, q0=Fraction(11, 6), Nmax=4)
    rep = convergence_report("single", {"n": 6}, ctx)
    assert math.inf not in dict(rep.points).values()
    assert calls == []
    rep = convergence_report("multi", {"n": 0, "r": 2}, ctx)  # S_N = 1 = beta exactly
    assert set(dict(rep.points).values()) == {math.inf}
    assert calls == [1, 2, 3, 4]


def test_a_report_builds_its_table_once(monkeypatch):
    # Every stage of multi n = 0 equals the closed value, so each falls back to
    # the exact stage, which evaluates the report's own table.
    tables, build = [], volkenborn_mod._stage_table

    def spy(*args):
        tables.append(args)
        return build(*args)

    monkeypatch.setattr(volkenborn_mod, "_stage_table", spy)
    rep = convergence_report("multi", {"n": 0, "r": 2}, PadicContext(p=5, q0=Fraction(11, 6),
                                                                      Nmax=4))
    assert set(dict(rep.points).values()) == {math.inf}
    assert len(tables) == 1


@pytest.mark.parametrize("family, params", [
    ("single", {"n": 2}), ("multi", {"n": 2, "r": 2, "x": -2}),
    ("weighted", {"n": 2, "h": 1, "r": 1})])
def test_an_isolated_root_gives_one_exact_stage_and_a_non_monotone_report(monkeypatch, family,
                                                                         params):
    # At p = 3, q0 = -2, single n = 2 has R(Q) proportional to (Q - 1)(Q + 8):
    # R is not identically 0, yet Q_1 = (-2)^3 = -8 is a root, so S_1 equals
    # beta exactly and no later stage does.  The other two reports behave alike.
    # Only stage 1 is built exactly, and the report is not monotone.
    ctx = PadicContext(p=3, q0=Fraction(-2), Nmax=3)
    calls = spy_exact_stages(monkeypatch, 3)
    rep = convergence_report(family, params, ctx)
    assert rep.points == [(1, math.inf), (2, 2), (3, 3)] and rep.monotone is False
    assert calls == [1]
    r, x = params.get("r", 1), params.get("x", 0)
    if family == "weighted":
        beta = beta_weighted(2, params["h"], r, 1, x)
        stages = [riemann_sum_weighted(2, params["h"], r, x, ctx, N) for N in (1, 2, 3)]
    else:
        beta = beta_higher(2, r, 1, x)
        stages = [riemann_sum_multi(2, r, x, ctx, N) for N in (1, 2, 3)]
    assert [s == eval_rational(beta, ctx.q0) for s in stages] == [True, False, False]


@pytest.mark.parametrize("p, q0", [(p, q0) for p, q0, _ in RESIDUE_CONTEXTS])
def test_residue_evaluation_agrees_with_the_exact_kernel(p, q0):
    # The table evaluated mod p^K, every power and K_k reduced, against the
    # exact evaluation, to K digits: at M = 0, the closed value, and at each
    # M = p^N of a report.
    k = 40
    for family, params in residue_cases():
        n, x = params["n"], params["x"]
        r, h = params.get("r", 1), params.get("h")
        exps, mult = (range(1, 2), r) if h is None else (range(h, h - r, -1), 1)
        table = volkenborn_mod._stage_table(n, x, q0, exps, mult)
        for size in (0, p, p**2, p**3):
            num, den = volkenborn_mod._stage_sum(table, size)
            assert (volkenborn_mod._stage_sum(table, size, p**k)
                    == (num % p**k, den % p**k)), (family, params, size)


# Integer points on each side of 1, fractions on each side of 1 and a negative point.
CLOSED_VALUE_POINTS = [Fraction(5), Fraction(6), Fraction(11, 6), Fraction(4, 3),
                       Fraction(7, 2), Fraction(-4), Fraction(1, 3)]


def test_closed_value_matches_the_ratfun_at_each_point():
    # The stage sum at M = 0 is P(1), the closed value a report compares with:
    # against the RatFun's value, for windows j + c_k of both signs
    # (h = -n-1, -n-3) and x of both signs, which make a^(top i) a divisor.
    for n, r, x in itertools.product(range(7), (1, 2, 3), (-2, 0, 1, 3)):
        forms = [(None, beta_higher(n, r, 1, x))]
        forms += [(h, beta_weighted(n, h, r, 1, x)) for h in (r, r + 2, -n - 1, -n - 3)]
        for (h, form), q0 in itertools.product(forms, CLOSED_VALUE_POINTS):
            exps, mult = (range(1, 2), r) if h is None else (range(h, h - r, -1), 1)
            table = volkenborn_mod._stage_table(n, x, q0, exps, mult)
            got = Fraction(*volkenborn_mod._stage_sum(table, 0))
            assert got == form.evaluate(q0), (n, r, x, h, q0)
    with pytest.raises(DegenerateWeightError):
        convergence_report("weighted", {"n": 2, "h": 0, "r": 2, "x": 1}, PadicContext(5))


def test_stage_fraction_gets_a_small_denominator(monkeypatch):
    # Every window e != 0 carries the factor B - A of 1 - Q = (B - A) / B, so the
    # (1 - Q)^r of the stage cancels before the one Fraction: its denominator had
    # 8,090 bits while it kept (b^M - a^M)^r.
    ctx, calls = PadicContext(p=5, Nmax=5), []
    monkeypatch.setattr(volkenborn_mod, "Fraction",
                        lambda *args: calls.append(args) or Fraction(*args))
    value = riemann_sum_multi(6, 1, 0, ctx, 5)
    assert [len(args) for args in calls] == [2]
    assert calls[0][1].bit_length() < 128 and value.denominator.bit_length() < 128


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**4) if is_prime(n)] == [n for n in range(10**4) if trial(n)]


@pytest.mark.parametrize("n", [561, 2047, 3215031751, 3825123056546413051,
                               318665857834031151167461])  # the last passes bases 2..37
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_refuses_past_its_bound_and_decides_below_it():
    assert is_prime(PSI_13 - 2) is False and is_prime(2**79 - 1) is False
    assert is_prime(PSI_13 - 168)  # the largest prime below the bound (sympy.prevprime)
    with pytest.raises(ResourceLimitError, match="primality bound"):
        is_prime(PSI_13)
    with pytest.raises(ResourceLimitError, match="primality bound"):
        p_valuation(Fraction(3), 2**89 - 1)
    assert p_valuation(Fraction(3), 2**61 - 1) == 0  # trial division never ended here


def test_p_valuation_examples():
    assert p_valuation(Fraction(3, 4), 2) == -2
    assert p_valuation(Fraction(50), 5) == 2
    assert p_valuation(Fraction(0), 3) == math.inf
    with pytest.raises(ValueError):
        p_valuation(Fraction(1), 4)
    with pytest.raises(ZeroDivisionError):  # the exponent of p in 0 is infinite
        volkenborn_mod._int_valuation(0, 3)


def test_context_validation():
    with pytest.raises(ValueError):
        PadicContext(p=6)
    with pytest.raises(ValueError):
        PadicContext(p=5, q0=Fraction(3))  # v5(1-3) = 0
    with pytest.raises(ValueError):
        PadicContext(p=2, q0=Fraction(3))  # v2(-2) = 1 < 2
    assert PadicContext(p=2).q0 == 5
    assert PadicContext(p=5).q0 == 6
    assert default_q0(3) == 4
    assert is_prime(2) and is_prime(13) and not is_prime(1)


def test_context_checks_primality_once(monkeypatch):
    calls = []
    monkeypatch.setattr(volkenborn_mod, "is_prime", lambda p: calls.append(p) or is_prime(p))
    assert PadicContext(p=5, q0=Fraction(11, 6)).q0 == Fraction(11, 6)
    assert calls == [5]
    # v_5(1 - 1/5) = -1 and v_2(1 - 3) = 1: the messages name the bound.
    with pytest.raises(ValueError, match=r"q0 = 1/5 too far from 1: need v_5\(1 - q0\) >= 1"):
        PadicContext(p=5, q0=Fraction(1, 5))
    with pytest.raises(ValueError, match=r"q0 = 3 too far from 1: need v_2\(1 - q0\) >= 2"):
        PadicContext(p=2, q0=Fraction(3))


def test_n0_normalization():
    for p, q0 in [(5, Fraction(6)), (3, Fraction(4)), (2, Fraction(5))]:
        ctx = PadicContext(p=p, q0=q0, Nmax=3)
        for N in (1, 2, 3):
            assert riemann_sum_multi(0, 1, 0, ctx, N) == 1
            if p ** (2 * N) <= ctx.budget:
                assert riemann_sum_multi(0, 2, 1, ctx, N) == 1


def test_riemann_matches_brute_force():
    ctx = PadicContext(p=3, q0=Fraction(4), Nmax=2)
    for n, r, x, N in [(1, 1, 0, 1), (2, 1, 1, 2), (1, 2, 0, 1), (2, 2, 1, 1)]:
        m = 3**N
        assert riemann_sum_multi(n, r, x, ctx, N) == riemann_brute(n, x, Fraction(4), m, [1] * r)


def test_weighted_matches_brute_force():
    ctx = PadicContext(p=3, q0=Fraction(4), Nmax=1)
    for n, h, r, x in [(1, 2, 1, 0), (2, 3, 2, 1), (1, 0, 1, 0), (0, -2, 2, 0)]:
        exps = [h - l + 1 for l in range(1, r + 1)]
        assert riemann_sum_weighted(n, h, r, x, ctx, 1) == riemann_brute(n, x, Fraction(4), 3, exps)


def test_weighted_h1_r1_equals_unweighted():
    ctx = PadicContext(p=5, q0=Fraction(6), Nmax=2)
    for n in (0, 1, 2):
        for N in (1, 2):
            assert riemann_sum_weighted(n, 1, 1, 0, ctx, N) == riemann_sum_multi(n, 1, 0, ctx, N)


def test_weighted_degenerate_h_still_summable():
    ctx = PadicContext(p=3, q0=Fraction(4), Nmax=1)
    value = riemann_sum_weighted(1, 0, 1, 0, ctx, 1)
    assert isinstance(value, Fraction)


def test_weighted_n0_geometric_form():
    # n=0, h=2, r=1: S_N = (sum_y q0^(2y)) / [p^N] = [p^N in base q0^2] / [p^N],
    # which approaches the closed-form value 2/[2] at q0.
    q0 = Fraction(6)
    ctx = PadicContext(p=5, q0=q0, Nmax=3)
    closed = eval_rational(beta_weighted(0, 2, 1, 1, 0), q0)
    assert closed == 2 / (1 + q0)
    vals = []
    for N in (1, 2, 3):
        m = 5**N
        s = riemann_sum_weighted(0, 2, 1, 0, ctx, N)
        geometric = ((1 - q0 ** (2 * m)) / (1 - q0**2)) / ((1 - q0**m) / (1 - q0))
        assert s == geometric
        vals.append(p_valuation(s - closed, 5))
    assert vals == sorted(vals) and vals[0] >= 1


def test_spec_valuation_spot_r1():
    ctx = PadicContext(p=5, q0=Fraction(6), Nmax=2)
    closed = eval_rational(beta_number(1), Fraction(6))
    v1 = p_valuation(riemann_sum_multi(1, 1, 0, ctx, 1) - closed, 5)
    v2 = p_valuation(riemann_sum_multi(1, 1, 0, ctx, 2) - closed, 5)
    assert v2 >= v1 >= 1


def test_spec_valuation_spot_r2():
    ctx = PadicContext(p=3, q0=Fraction(4), Nmax=1)
    closed = eval_rational(beta_higher(1, 2, 1, 0), Fraction(4))
    assert p_valuation(riemann_sum_multi(1, 2, 0, ctx, 1) - closed, 3) >= 1


def test_bad_stage_degree_or_family_is_a_domain_error():
    ctx = PadicContext(p=5, Nmax=2)
    with pytest.raises(QsymDomainError, match=r"N must be in 1\.\.2"):
        riemann_sum_multi(1, 1, 0, ctx, 3)
    with pytest.raises(QsymDomainError, match="need n >= 0 and r >= 1"):
        riemann_sum_multi(-1, 1, 0, ctx, 1)
    with pytest.raises(QsymDomainError, match="family must be one of"):
        convergence_report("double", {"n": 1}, ctx)
    # A report takes exactly its family's params, so none is dropped unread
    # and a missing one is a domain error, not a KeyError.
    with pytest.raises(QsymDomainError) as info:
        convergence_report("single", {"n": 2, "r": 3, "h": 9}, ctx)
    assert str(info.value) == "single takes ['n'], x optional; got ['h', 'n', 'r']"
    with pytest.raises(QsymDomainError) as info:
        convergence_report("multi", {"n": 2}, ctx)
    assert str(info.value) == "multi takes ['n', 'r'], x optional; got ['n']"


def test_budget_guard():
    ctx = PadicContext(p=5, Nmax=4, budget=100)
    with pytest.raises(ResourceLimitError):
        riemann_sum_multi(1, 2, 0, ctx, 2)


def test_budget_guard_boundary():
    # p^(r N) = 5^4 = 625 tuples.
    assert isinstance(riemann_sum_multi(1, 2, 0, PadicContext(p=5, budget=625), 2), Fraction)
    with pytest.raises(ResourceLimitError, match=r"5\^\(4\) exceeds the budget 624"):
        riemann_sum_multi(1, 2, 0, PadicContext(p=5, budget=624), 2)


@pytest.mark.parametrize("family", ["multi", "weighted"])
def test_budget_refusal_allocates_nothing_of_length_r(family):
    # 5^(10^6) has ~700,000 digits and a length-r list of ints takes 8 MB.
    ctx = PadicContext(p=5)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            if family == "multi":
                riemann_sum_multi(0, 10**6, 0, ctx, 1)
            else:
                riemann_sum_weighted(0, 3, 10**6, 0, ctx, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("family, params, p, N, bits", [
    ("single", {"n": 6}, 5, 5, 65_625),             # r (n + max|c_k|) p^N * bitlen(6)
    ("multi", {"n": 3, "r": 2}, 5, 4, 15_000),
    ("weighted", {"n": 4, "h": -6, "r": 2}, 7, 2, 4_312),  # c = (-6, -7), q0 = 8
    ("multi", {"n": 3, "r": 2, "x": -500}, 5, 3, 7_500),  # (r (n + 1) p^N + n |x|) * 3
])
def test_stage_size_guard_bound_is_the_predicted_size(monkeypatch, family, params, p, N, bits):
    ctx = PadicContext(p=p, Nmax=N)
    monkeypatch.setattr(volkenborn_mod, "MAX_STAGE_BITS", bits)
    if family == "weighted":
        stage = lambda: riemann_sum_weighted(params["n"], params["h"], params["r"],
                                             params.get("x", 0), ctx, N)
    else:
        stage = lambda: riemann_sum_multi(params["n"], params.get("r", 1), params.get("x", 0),
                                          ctx, N)
    assert isinstance(stage(), Fraction)  # at the bound: fine
    monkeypatch.setattr(volkenborn_mod, "MAX_STAGE_BITS", bits - 1)
    with pytest.raises(ResourceLimitError, match=f"about {bits} bits"):
        stage()
    with pytest.raises(ResourceLimitError, match=f"N = {N} "):
        convergence_report(family, params, ctx)


def test_stage_size_guard_refuses_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a report past the stage-size guard did work")

    for name in ("_stage_table", "_stage_sum", "riemann_sum_multi", "_riemann_sum"):
        monkeypatch.setattr(volkenborn_mod, name, no_work)
    # 9.6M bits at N = 7 for n = 40; the deepest stage is checked first.
    ctx = PadicContext(p=5, Nmax=7)
    with pytest.raises(ResourceLimitError, match="N = 7 builds numbers of about 9609375 bits"):
        convergence_report("single", {"n": 40}, ctx)
    assert volkenborn_mod._check_stage(ctx, 2, 1, 0, range(1, 2), 7) == 5**7  # 0.70M bits: runs
    # The powers q0^(m x) count too: 6^(2 * 10^9) would be 650 MB at N = 1.
    with pytest.raises(ResourceLimitError, match="N = 1 builds numbers of about 6000000045 bits"):
        convergence_report("single", {"n": 2, "x": 10**9}, PadicContext(p=5, Nmax=1))


def test_large_r_report_peaks_under_a_megabyte():
    # The table holds O(n r) numbers of the size of the window denominators, so
    # the peak does not follow the degree, about r (n + h), of S_N in Q.
    ctx = PadicContext(p=2, Nmax=1)
    tracemalloc.start()
    try:
        rep = convergence_report("weighted", {"n": 5, "h": 500, "r": 19}, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.points == [(1, -1)]
    assert peak < 2**20


def test_shift_equation_at_finite_stage():
    # q0 * S_N(argument 1) - S_N(argument 0) approaches q0-1, 1, 0 for n = 0, 1, 2.
    ctx = PadicContext(p=5, q0=Fraction(6), Nmax=3)
    rhs = {0: Fraction(5), 1: Fraction(1), 2: Fraction(0)}
    for n in (0, 1, 2):
        vals = []
        for N in (1, 2, 3):
            combo = 6 * riemann_sum_multi(n, 1, 1, ctx, N) - riemann_sum_multi(n, 1, 0, ctx, N)
            vals.append(p_valuation(combo - rhs[n], 5))
        assert all(vals[i + 1] >= vals[i] for i in range(len(vals) - 1)), (n, vals)
        assert vals[-1] >= 3, (n, vals)


def test_convergence_report_families():
    ctx = PadicContext(p=5, q0=Fraction(6), Nmax=3)
    rep = convergence_report("multi", {"n": 0, "r": 2, "x": 0}, ctx)
    assert rep.monotone and all(v == math.inf for _, v in rep.points)
    rep = convergence_report("single", {"n": 2, "x": 0}, PadicContext(p=5, q0=Fraction(6), Nmax=4))
    assert rep.monotone and rep.points[-1][1] >= 3
    rep = convergence_report("weighted", {"n": 1, "h": 2, "r": 1, "x": 0},
                             PadicContext(p=3, q0=Fraction(4), Nmax=3))
    assert rep.monotone


def test_convergence_report_closed_form_uses_weighted_family():
    ctx = PadicContext(p=5, q0=Fraction(6), Nmax=2)
    rep = convergence_report("weighted", {"n": 2, "h": 3, "r": 2, "x": 1}, ctx)
    closed = eval_rational(beta_weighted(2, 3, 2, 1, 1), Fraction(6))
    s2 = riemann_sum_weighted(2, 3, 2, 1, ctx, 2)
    assert rep.points[1] == (2, p_valuation(s2 - closed, 5))


def test_report_builds_no_closed_form_polynomial():
    # The closed value is summed in integers, so a report whose closed form
    # spans past MAX_SPAN runs; the oracle is the defining sum over Fractions.
    n, h, q0 = 10, 9_200, Fraction(-2)
    with pytest.raises(ResourceLimitError, match="MAX_SPAN"):
        beta_weighted(n, h, 1, 1, 0)
    closed = sum((-1) ** j * math.comb(n, j) * (j + h) * (1 - q0) / (1 - q0 ** (j + h))
                 for j in range(n + 1)) / (1 - q0) ** n
    ctx = PadicContext(p=3, q0=q0, Nmax=1)
    rep = convergence_report("weighted", {"n": n, "h": h, "r": 1}, ctx)
    assert rep.points == [(1, p_valuation(riemann_sum_weighted(n, h, 1, 0, ctx, 1) - closed, 3))]


def test_report_json_schema():
    ctx = PadicContext(p=5, q0=Fraction(6), Nmax=2)
    rep = convergence_report("multi", {"n": 0, "r": 1, "x": 0}, ctx)
    obj = json.loads(rep.to_json())
    assert set(obj) == {"family", "params", "p", "q0", "points", "monotone"}
    assert obj["points"][0] == [1, "inf"]
