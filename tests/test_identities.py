import inspect
import itertools
import json
import random
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import qsym.identities as idn
from convolution_side import convolution_side
from qsym.identities import (
    GuardLimits,
    SweepConfig,
    check_expansion,
    check_limit_q1,
    check_multiplication,
    check_recurrence,
    check_shift,
    check_thm3,
    check_thm4,
    check_thm5,
    check_thm6,
    sweep,
)
from qsym.qbernoulli import (
    DegenerateWeightError,
    beta_higher,
    beta_weighted,
    classical_bernoulli_higher,
    t_sum,
    t_sum_h,
)
from qsym.qcore import bracket_poly, q_bracket
from qsym.ratfun import LaurentPoly, QsymDomainError, RatFun, ResourceLimitError, ratfun_eq


def test_recurrence_base_cases():
    rep0 = check_recurrence(0)
    assert rep0.holds and rep0.rhs == RatFun(LaurentPoly({1: 1, 0: -1}))
    rep1 = check_recurrence(1)
    assert rep1.holds and rep1.rhs == RatFun(1)
    rep3 = check_recurrence(3)
    assert rep3.holds and rep3.rhs == RatFun(0)


def test_shift_cases():
    assert check_shift(0).holds
    assert check_shift(1).holds
    assert check_shift(4).holds


def test_expansion_small():
    for n in range(5):
        for x in range(3):
            assert check_expansion(n, x).holds


def test_limit_q1_check():
    for n in range(4):
        assert check_limit_q1(n, 2, 1).holds


def test_multiplication_trivial_w1():
    rep = check_multiplication(3, 2, 1, 1)
    assert rep.holds
    assert ratfun_eq(rep.lhs, rep.rhs)


def test_multiplication_spots():
    assert check_multiplication(1, 1, 2, 0).holds
    assert check_multiplication(4, 2, 3, 1).holds


def test_thm3_symmetric_when_w_equal():
    rep = check_thm3(3, 2, 2, 2, 1)
    assert rep.holds
    assert rep.lhs.num == rep.rhs.num and rep.lhs.den == rep.rhs.den


def test_thm3_reduces_to_multiplication_at_w2_one():
    rep = check_thm3(2, 2, 3, 1, 1)
    assert rep.holds
    mult = check_multiplication(2, 2, 3, 1)
    # rhs of thm3 at w2=1 is a single term: the plain order-r value at w1*x
    assert ratfun_eq(rep.rhs, mult.lhs)
    assert ratfun_eq(rep.lhs, mult.rhs)


def test_thm3_spot():
    assert check_thm3(2, 1, 2, 3, 1).holds


def test_thm4_n0_value():
    rep = check_thm4(0, 2, 2, 3, 0)
    assert rep.holds
    expected = (q_bracket(6, 1) / (q_bracket(2, 1) * q_bracket(3, 1))) ** 2
    assert ratfun_eq(rep.lhs, expected)


def test_thm4_trivial_bases():
    rep = check_thm4(3, 2, 1, 1, 1)
    assert rep.holds


def test_thm4_spot():
    assert check_thm4(3, 2, 2, 3, 0).holds


def test_thm5_spots():
    assert check_thm5(2, 3, 2, 2, 2, 0).holds  # w1 == w2, symmetric
    assert check_thm5(2, 3, 2, 2, 3, 0).holds
    # h=1, r=1 matches the unweighted statement
    t5 = check_thm5(2, 1, 1, 2, 3, 1)
    t3 = check_thm3(2, 1, 2, 3, 1)
    assert t5.holds and ratfun_eq(t5.lhs, t3.lhs)


def test_thm6_spots():
    assert check_thm6(2, 4, 2, 3, 2, 1).holds
    assert check_thm6(3, 3, 1, 1, 1, 0).holds
    t6 = check_thm6(2, 1, 1, 2, 3, 0)
    t4 = check_thm4(2, 1, 2, 3, 0)
    assert t6.holds and ratfun_eq(t6.lhs, t4.lhs)


def swap_side_by_tuples(n, cs, wa, wb, x, beta):
    """A base-swap side as the paper states it: one term per index tuple,
    q^(wb sum_l c_l j_l) times beta(wa, wa wb x + wb sum j), beta(w, arg) the
    family's closed form at one argument."""
    acc = RatFun(0)
    for jt in itertools.product(range(wa), repeat=len(cs)):
        e = wb * sum(c * j for c, j in zip(cs, jt))
        acc = acc + RatFun(LaurentPoly({e: 1})) * beta(wa, wa * wb * x + wb * sum(jt))
    return q_bracket(wa, 1) ** (n - len(cs)) * acc


# every (wa, wb, x) inside the old wa**r <= MAX_TUPLES guard at w <= 4, r <= 3
SIDE_CASES = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("n, r", SIDE_CASES)
def test_thm5_side_matches_tuple_enumeration(n, r):
    for h in (r, r + 1, r + 3, -n - 1):
        cs = range(h, h - r, -1)
        for wa, wb in itertools.product(range(1, 5), repeat=2):
            for x in (0, 1):
                got = idn._swap_side(n, r, h, wa, wb, x)
                want = swap_side_by_tuples(n, cs, wa, wb, x,
                                           lambda w, arg: beta_weighted(n, h, r, w, arg))
                assert ratfun_eq(got, want), (h, wa, wb, x)


@pytest.mark.parametrize("n, r", SIDE_CASES)
def test_thm3_side_matches_tuple_enumeration(n, r):
    beta = lambda w, arg: beta_higher(n, r, w, arg)
    for x in (0, 1):
        for wa, wb in itertools.product(range(1, 5), repeat=2):
            got = idn._swap_side(n, r, None, wa, wb, x)
            assert ratfun_eq(got, swap_side_by_tuples(n, (1,) * r, wa, wb, x, beta)), (wa, wb, x)
        # the multiplication formula is the side at wb = 1
        for w1 in range(1, 5):
            rhs = check_multiplication(n, r, w1, x).rhs
            assert ratfun_eq(rhs, swap_side_by_tuples(n, (1,) * r, w1, 1, x, beta)), (w1, x)


def test_thm5_degenerate_h_propagates():
    with pytest.raises(DegenerateWeightError):
        check_thm5(2, 0, 1, 2, 2, 0)


def test_swap_consistency():
    for maker, params in [
        (check_thm3, (2, 1)),
        (check_thm4, (2, 2)),
    ]:
        n, r = params
        a = maker(n, r, 2, 3, 1)
        b = maker(n, r, 3, 2, 1)
        assert ratfun_eq(a.lhs, b.rhs) and ratfun_eq(a.rhs, b.lhs)
    a = check_thm5(2, 3, 2, 2, 3, 0)
    b = check_thm5(2, 3, 2, 3, 2, 0)
    assert ratfun_eq(a.lhs, b.rhs)
    a = check_thm6(2, 3, 2, 2, 3, 0)
    b = check_thm6(2, 3, 2, 3, 2, 0)
    assert ratfun_eq(a.lhs, b.rhs)


# -- reports and sweeps ---------------------------------------------------------


def test_report_invariant_and_json_schema():
    rep = check_thm3(1, 1, 1, 2, 0)
    assert rep.holds == ratfun_eq(rep.lhs, rep.rhs)
    obj = json.loads(rep.to_json_line())
    assert set(obj) == {"identity", "params", "holds"}
    verbose = json.loads(rep.to_json_line(verbose=True))
    assert set(verbose) == {"identity", "params", "holds", "lhs", "rhs"}
    assert verbose["lhs"]["num"] == verbose["rhs"]["num"]


def test_failure_report_serializes_both_sides(monkeypatch):
    monkeypatch.setattr(idn, "_THM4_LHS_TWIST", 1)
    rep = check_thm4(1, 1, 1, 2, 0)
    assert not rep.holds
    obj = json.loads(rep.to_json_line())
    assert "lhs" in obj and "rhs" in obj


def test_sweep_small_all_hold():
    cfg = SweepConfig(identities=("thm3",), ns=(0, 1, 2), rs=(1,), w1s=(1, 2), w2s=(1, 2), xs=(0, 1))
    reports = sweep(cfg)
    assert len(reports) == 3 * 1 * 2 * 2 * 2
    assert all(r.holds for r in reports)


def test_sweep_recurrence_full_guard_range():
    cfg = SweepConfig(identities=("recurrence",), ns=tuple(range(13)))
    assert all(r.holds for r in sweep(cfg))


def test_sweep_deterministic_order_and_parallel_equivalence():
    cfg = SweepConfig(
        identities=("recurrence", "thm3"), ns=(0, 1, 2), rs=(1, 2), w1s=(1, 2), w2s=(1, 2), xs=(0,)
    )
    serial = [r.to_json_line() for r in sweep(cfg, threads=1)]
    parallel = [r.to_json_line() for r in sweep(cfg, threads=4)]
    assert serial == parallel


def test_sweep_mutation_is_caught(monkeypatch):
    monkeypatch.setattr(idn, "_THM4_LHS_TWIST", 1)
    cfg = SweepConfig(identities=("thm4",), ns=(0, 1, 2), rs=(1,), w1s=(1, 2), w2s=(1, 2), xs=(0,))
    reports = sweep(cfg)
    assert any(not r.holds for r in reports)


def test_sweep_guard_violations():
    with pytest.raises(ResourceLimitError):
        sweep(SweepConfig(identities=("thm3",), w1s=tuple(range(1, 51))))
    with pytest.raises(ResourceLimitError):
        sweep(SweepConfig(identities=("recurrence",), ns=(0, 13)))
    with pytest.raises(ResourceLimitError):
        sweep(SweepConfig(identities=("thm5",), hs=(9,)))
    with pytest.raises(ValueError):
        sweep(SweepConfig(identities=("nope",)))
    with pytest.raises(QsymDomainError, match="empty range for n"):
        sweep(SweepConfig(ns=()))
    with pytest.raises(ResourceLimitError, match=r"r range \(5,\) outside guard 1\.\.4"):
        sweep(SweepConfig(rs=(5,)))
    with pytest.raises(ResourceLimitError, match=r"x range \(5,\) outside guard \|x\| <= 4"):
        sweep(SweepConfig(xs=(5,)))


def test_sweep_sampling_is_deterministic():
    cfg = SweepConfig(identities=("thm3",), ns=(0, 1, 2, 3), rs=(1, 2), w1s=(1, 2), w2s=(1, 2),
                      xs=(0, 1), sample=5, seed=7)
    a = [r.params for r in sweep(cfg)]
    b = [r.params for r in sweep(cfg)]
    assert a == b and len(a) == 5


def test_guard_limits_configurable():
    g = GuardLimits(max_n=20)
    cfg = SweepConfig(identities=("recurrence",), ns=(14,), guards=g)
    assert all(r.holds for r in sweep(cfg))


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    seen = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


# cpus: the CPUs this process may run on (os.cpu_count counts more); None, a
# platform without sched_getaffinity whose cpu_count cannot tell either.
@pytest.mark.parametrize("threads, cpus, expected", [
    (10_000, 3, 3), (2, 8, 2), (64, None, None), (5, 8, 4), (2, 1, None),
])
def test_sweep_clamps_workers_before_the_pool_starts(monkeypatch, threads, cpus, expected):
    cfg = SweepConfig(identities=("recurrence",), ns=(0, 1, 2, 3))
    if cpus is None:
        monkeypatch.delattr(idn.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(idn.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(idn.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(idn.os, "cpu_count", lambda: 64)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    _SerialPool.seen = []
    reports = [r.to_json_line() for r in sweep(cfg, threads=threads)]
    assert _SerialPool.seen == ([] if expected is None else [expected])
    assert reports == [r.to_json_line() for r in sweep(cfg, threads=1)]


# -- the shared side cache ------------------------------------------------------

SIDE_IDENTITIES = ("multiplication", "thm3", "thm4", "thm5", "thm6")
MIRROR_GRID = SweepConfig(identities=SIDE_IDENTITIES, ns=(0, 1, 2, 3), rs=(1, 2),
                          w1s=(1, 2, 3), w2s=(1, 2, 3), xs=(0, 1), h_offsets=(0, 1, 3))


def oracle_side(n, r, h, wa, wb, x, twist=0):
    """The (wa, wb) convolution side of thm4 (h None) or thm6, built per i with a
    division per T-sum by the oracle in convolution_side.py."""
    if h is None:
        closed = lambda i, w, arg: beta_higher(i, r, w, arg)
        tsum = lambda i, wlim, base: t_sum(n, i, r, wlim, base)
    else:
        closed = lambda i, w, arg: beta_weighted(i, h, r, w, arg)
        tsum = lambda i, wlim, base: t_sum_h(n, i, h, r, wlim, base)
    return convolution_side(n, r, wa, wb, x, closed, tsum, twist)


def uncached_sides(ident, p):
    """(lhs, rhs) of one report from the uncached side builders, called with the
    per-check closed forms and T-sums the checkers built before the side cache."""
    n, r, x, h = p["n"], p["r"], p["x"], p.get("h")
    if ident == "multiplication":
        return beta_higher(n, r, 1, p["w1"] * x), idn._swap_side(n, r, None, p["w1"], 1, x)
    w1, w2 = p["w1"], p["w2"]
    if ident in ("thm3", "thm5"):
        return idn._swap_side(n, r, h, w1, w2, x), idn._swap_side(n, r, h, w2, w1, x)
    if ident == "thm4":
        return oracle_side(n, r, None, w1, w2, x), oracle_side(n, r, None, w2, w1, x)
    return oracle_side(n, r, h, w2, w1, x), oracle_side(n, r, h, w1, w2, x)


def canonical_sides(lhs, rhs):
    return lhs.canonical().to_json_obj(), rhs.canonical().to_json_obj()


def test_cached_sides_match_the_uncached_builders(cold_caches):
    jobs = MIRROR_GRID.jobs()
    want = [canonical_sides(*uncached_sides(ident, p)) for ident, p in jobs]
    cold_caches()
    for _ in ("cold", "warm"):
        reports = sweep(MIRROR_GRID)
        assert [(r.identity, r.params) for r in reports] == jobs
        assert all(r.holds for r in reports)
        assert [canonical_sides(r.lhs, r.rhs) for r in reports] == want


def side_pairs(reports):
    """The distinct unordered pairs of side keys the base-swap reports compare."""
    pairs = set()
    for rep in reports:
        p = dict(rep.params)
        w1, w2 = p.pop("w1"), p.pop("w2")
        pairs.add((rep.identity, tuple(sorted(p.items())), frozenset({(w1, w2), (w2, w1)})))
    return pairs


def pair_block(job):
    """The (identity, n, r, h) block of a base-swap job, whose pairs _mirror_report keeps."""
    ident, p = job
    return ident, p["n"], p["r"], p.get("h")


def test_mirror_checks_share_each_side(monkeypatch, cold_caches):
    # 75 checks a block, so a mirror check can come dozens of checks after its partner.
    ws = (1, 2, 3, 4, 5)
    cfg = SweepConfig(identities=("thm3", "thm6"), ns=(2, 3), rs=(1,), w1s=ws, w2s=ws,
                      xs=(0, 1, 2), h_offsets=(0,))
    built = Counter()
    for name in ("_swap_side", "_convolution_side"):
        def spy(*args, _name=name, _build=getattr(idn, name)):
            built[_name, args] += 1
            return _build(*args)
        monkeypatch.setattr(idn, name, spy)
    reports = sweep(cfg)
    assert all(r.holds for r in reports)
    # Each check names one side, its mirror the other side of the pair: every
    # side, and so every pair, is built once.
    assert len(built) == len(reports) and set(built.values()) == {1}


def test_side_cache_stays_within_its_bound(cold_caches):
    cfg = SweepConfig(identities=("thm3", "thm5"), ns=(0, 1, 2), rs=(1, 2), w1s=(1, 2, 3),
                      w2s=(1, 2, 3), xs=(0, 1), h_offsets=(0, 1))
    reports = sweep(cfg)
    blocks = [pair_block(job) for job in cfg.jobs()]
    info = idn._pair_block.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)
    assert info.misses == len(set(blocks))  # each block is one stretch of checks
    # After the sweep the cache holds the last block, whose sides the reports hold.
    held = idn._pair_block(*blocks[-1])
    last = [r for r in reports if pair_block((r.identity, r.params)) == blocks[-1]]
    assert len(held) == len(side_pairs(last))
    reported = {id(side) for r in last for side in (r.lhs, r.rhs)}
    assert {id(side) for pair in held.values() for side in pair[:2]} == reported


MIRRORED = ("thm3", "thm4", "thm5", "thm6")


def axis(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=3, unique=True).map(tuple)


# Inside the default GuardLimits: h = r + offset <= 8.
sweep_configs = st.builds(
    SweepConfig,
    identities=st.lists(st.sampled_from(MIRRORED), min_size=1, unique=True).map(tuple),
    ns=axis(0, 12), rs=axis(1, 4), w1s=axis(1, 6), w2s=axis(1, 6), xs=axis(-4, 4),
    h_offsets=axis(0, 4), sample=st.none() | st.integers(0, 200), seed=st.integers(0, 9))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cfg=sweep_configs)
def test_each_mirror_check_runs_in_its_partners_block(cfg):
    jobs = cfg.jobs()
    at = {(ident, tuple(sorted(p.items()))): k for k, (ident, p) in enumerate(jobs)}
    for k, (ident, p) in enumerate(jobs):
        mirror = at.get((ident, tuple(sorted({**p, "w1": p["w2"], "w2": p["w1"]}.items()))))
        if mirror is not None:
            lo, hi = sorted((k, mirror))
            assert {pair_block(job) for job in jobs[lo:hi + 1]} == {pair_block(jobs[k])}


def test_each_pair_of_sides_is_compared_once(monkeypatch, cold_caches):
    calls = []
    eq = RatFun.__eq__

    def spy(a, b):
        calls.append((a, b))  # holds both sides, so their ids stay unique
        return eq(a, b)

    monkeypatch.setattr(RatFun, "__eq__", spy)
    reports = sweep(MIRROR_GRID)
    swaps = [r for r in reports if r.identity != "multiplication"]
    diagonal = [r for r in swaps if r.params["w1"] == r.params["w2"]]
    assert diagonal and all(r.lhs is r.rhs and r.holds for r in diagonal)
    mirror = {frozenset((id(r.lhs), id(r.rhs))) for r in swaps if r.lhs is not r.rhs}
    compared = [frozenset((id(a), id(b))) for a, b in calls]
    assert all(a is not b for a, b in calls)
    assert mirror <= set(compared)
    # One call per multiplication check and one per unordered pair of distinct sides.
    assert len(compared) == len(set(compared)) == len(reports) - len(swaps) + len(mirror)


def test_twist_is_not_hidden_by_warm_sides(monkeypatch, cold_caches):
    cfg = SweepConfig(identities=("thm4",), ns=(0, 1, 2), rs=(1, 2), w1s=(1, 2), w2s=(1, 2),
                      xs=(0, 1))
    assert all(r.holds for r in sweep(cfg))
    monkeypatch.setattr(idn, "_THM4_LHS_TWIST", 1)
    assert not any(r.holds for r in sweep(cfg))


def test_twisted_reports_keep_each_side_in_place(monkeypatch, cold_caches):
    # A failing mirror pair is shared too: each report still shows its own lhs.
    monkeypatch.setattr(idn, "_THM4_LHS_TWIST", 1)
    cfg = SweepConfig(identities=("thm4",), ns=(1, 2), rs=(1, 2), w1s=(1, 2, 3), w2s=(1, 2, 3),
                      xs=(1,))
    for rep in sweep(cfg):
        n, r, w1, w2, x = (rep.params[k] for k in ("n", "r", "w1", "w2", "x"))
        assert not rep.holds
        assert rep.lhs == oracle_side(n, r, None, w1, w2, x, 1), rep.params
        assert rep.rhs == oracle_side(n, r, None, w2, w1, x), rep.params


# -- the difference-table convolution side --------------------------------------

# h as a function of (n, r): None for thm4, else thm6's weight on either side of
# the degenerate band -n <= h <= r-1.
H_OF = {"thm4": lambda n, r: None, "h=r": lambda n, r: r, "h=r+1": lambda n, r: r + 1,
        "h=r+2": lambda n, r: r + 2, "h=r+3": lambda n, r: r + 3,
        "h=-n-1": lambda n, r: -n - 1, "h=-n-3": lambda n, r: -n - 3}


def h_params(*names):
    return pytest.mark.parametrize("h_of", [H_OF[k] for k in names], ids=names)


@h_params("thm4", "h=r", "h=r+1", "h=r+3", "h=-n-1", "h=-n-3")
def test_convolution_side_matches_the_per_i_oracle(h_of):
    # Mirror-closed in (wa, wb), with w = 1, n < r (so [wb]^(n-r) is a
    # denominator) and a negative x.
    for n, r, wa, wb, x in itertools.product(range(4), (1, 2, 3), (1, 2, 3), (1, 2, 3), (-1, 2)):
        h = h_of(n, r)
        at = (n, r, h, wa, wb, x)
        plain = idn._convolution_side(n, r, h, wa, wb, x, 0)
        twisted = idn._convolution_side(n, r, h, wa, wb, x, 1)
        assert plain == oracle_side(n, r, h, wa, wb, x), at
        assert twisted == oracle_side(n, r, h, wa, wb, x, 1), at
        assert twisted != plain, at


@h_params("thm4", "h=r", "h=r+2", "h=-n-1", "h=-n-3")
def test_convolution_side_is_the_swapped_base_swap_side(h_of):
    # Binomial inversion of the T-sum numerators turns a thm4 (thm6) side at
    # (wa, wb) into the thm3 (thm5) side at (wb, wa); the checkers never use it.
    grid = itertools.product(range(6), (1, 2, 3), (1, 2, 3), (1, 2, 4), (-1, 0, 2))
    for n, r, wa, wb, x in grid:
        h = h_of(n, r)
        assert (idn._convolution_side(n, r, h, wa, wb, x, 0)
                == idn._swap_side(n, r, h, wb, wa, x)), (n, r, h, wa, wb, x)


def classical_side(n, r, wa, wb, x):
    """wa^(n-r) * sum over j in {0..wa-1}^r of B_n^(r)(wb x + wb sum j / wa): the
    classical symmetry of Tuenter (Amer. Math. Monthly 108, 2001) and Yang
    (Discrete Math. 308, 2008), one side of it at (wa, wb)."""
    return wa ** (n - r) * sum(
        classical_bernoulli_higher(n, r, wb * x + Fraction(wb * sum(j), wa))
        for j in itertools.product(range(wa), repeat=r))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_every_side_tends_to_its_classical_value(r):
    # At q = 1 each power q^e is 1: the weight exponents of the weighted family
    # drop out, so h does too, and a twist q^t, like the thm4 lhs hook's, is
    # invisible here; the exact checks, not this oracle, must catch it.
    for n, wa, wb, x in itertools.product(range(5), (1, 2, 3), (1, 2, 3), (-1, 0, 2)):
        want = classical_side(n, r, wa, wb, x)
        for h in (None, r, r + 2):
            at = (n, r, h, wa, wb, x)
            assert idn._swap_side(n, r, h, wa, wb, x).limit_at_one() == want, at
            assert idn._convolution_side(n, r, h, wb, wa, x, 0).limit_at_one() == want, at


DEGENERATE = SweepConfig(identities=("thm3", "thm5"), ns=(0, 1, 2), rs=(1, 2), hs=(-2,))


@pytest.mark.parametrize("threads", [1, 2])
def test_degenerate_h_refuses_the_sweep_before_any_check(monkeypatch, threads):
    # The first degenerate job is thm5 at n = 2, r = 1, after every thm3 job.
    def never(**params):
        raise AssertionError("a checker ran")

    monkeypatch.setattr(idn, "_CHECKERS", dict.fromkeys(idn._CHECKERS, never))
    message = "h=-2 is degenerate for n=2, r=1"
    with pytest.raises(DegenerateWeightError, match=message):
        DEGENERATE.jobs()
    with pytest.raises(DegenerateWeightError, match=message):
        sweep(DEGENERATE, threads=threads)


def test_degenerate_h_is_checked_only_on_the_sampled_jobs():
    assert DEGENERATE._replace(sample=0).jobs() == []
    nondegenerate = DEGENERATE._replace(ns=(0, 1))
    assert len(nondegenerate.jobs()) == 64


# -- the grid order --------------------------------------------------------------


def literal_jobs(cfg):
    """The documented report order (identity, n, r, [h], w1, w2, x), written out
    per identity, then the documented --sample/--seed draw."""
    ns, rs, w1s, w2s, xs = cfg.ns, cfg.rs, cfg.w1s, cfg.w2s, cfg.xs

    def hs(r):
        return cfg.hs if cfg.hs is not None else [r + off for off in cfg.h_offsets]

    jobs = [("recurrence", {"n": n}) for n in ns]
    jobs += [("shift", {"n": n}) for n in ns]
    jobs += [("expansion", {"n": n, "x": x}) for n in ns for x in xs]
    jobs += [("limit-q1", {"n": n, "r": r, "x": x}) for n in ns for r in rs for x in xs]
    jobs += [("multiplication", {"n": n, "r": r, "w1": w1, "x": x})
             for n in ns for r in rs for w1 in w1s for x in xs]
    for ident in ("thm3", "thm4"):
        jobs += [(ident, {"n": n, "r": r, "w1": w1, "w2": w2, "x": x})
                 for n in ns for r in rs for w1 in w1s for w2 in w2s for x in xs]
    for ident in ("thm5", "thm6"):
        jobs += [(ident, {"n": n, "r": r, "h": h, "w1": w1, "w2": w2, "x": x})
                 for n in ns for r in rs for h in hs(r) for w1 in w1s for w2 in w2s for x in xs]
    jobs = [job for job in jobs if job[0] in cfg.identities]
    if cfg.sample is not None and cfg.sample < len(jobs):
        idx = sorted(random.Random(cfg.seed).sample(range(len(jobs)), cfg.sample))
        jobs = [jobs[i] for i in idx]
    return jobs


# Two values on every axis, none in sorted order, so the field order shows.
TWO_BY_TWO = SweepConfig(ns=(2, 1), rs=(2, 1), w1s=(3, 1), w2s=(1, 2), xs=(1, -1),
                         h_offsets=(3, 0))


@pytest.mark.parametrize("cfg", [
    TWO_BY_TWO,
    TWO_BY_TWO._replace(hs=(5, -4)),
    TWO_BY_TWO._replace(sample=23, seed=5),
    TWO_BY_TWO._replace(identities=("thm6", "expansion", "thm3", "recurrence")),
], ids=["h-offsets", "hs", "sampled", "selected"])
def test_jobs_follow_the_documented_grid_order(cfg):
    want = literal_jobs(cfg)
    assert len(want) == (23 if cfg.sample else sum(
        2 ** len(idn._GRID_AXES[i].split()) for i in cfg.identities))
    assert cfg.jobs() == want


def load_workloads():
    """perfbench/workloads.py, run from its source so that nothing is written
    beside it; it imports nothing from qsym."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    mod = types.ModuleType("workloads")
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


@pytest.mark.parametrize("scale", ["full", "tiny"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jobs_match_the_benchmark_sweep(monkeypatch, scale, seed):
    monkeypatch.setenv("PERFBENCH_SCALE", scale)
    workloads = load_workloads()
    assert SweepConfig(**workloads.sweep_config(seed)).jobs() == workloads.sweep_jobs(seed)


def test_a_cold_sweep_caches_each_bracket_once(cold_caches):
    # lru_cache keys the arguments as passed, so bracket_poly(m, w) and
    # bracket_poly(m, w, 1) would be two entries for one bracket.  The body runs
    # once per cache miss, that is once per entry: record its (m, w, k).
    body = bracket_poly.__wrapped__.__code__
    stored = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is body:
            stored.append(tuple(frame.f_locals[a] for a in ("m", "w", "k")))

    cfg = SweepConfig(**load_workloads().sweep_config(0))
    sys.setprofile(profile)
    try:
        reports = sweep(cfg)
    finally:
        sys.setprofile(None)
    assert len(reports) == 432 and all(r.holds for r in reports)
    assert len(stored) == bracket_poly.cache_info().currsize
    assert [key for key, count in Counter(stored).items() if count > 1] == []


def test_every_identity_has_grid_axes_naming_its_checker_parameters():
    assert idn.IDENTITIES == tuple(idn._CHECKERS) == tuple(idn._GRID_AXES)
    for ident, checker in idn._CHECKERS.items():
        axes = idn._GRID_AXES[ident].split()
        assert sorted(axes) == sorted(inspect.signature(checker).parameters), ident
