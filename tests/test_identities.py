import itertools
import json

import pytest

import qsym.identities as idn
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
from qsym.qbernoulli import DegenerateWeightError, beta_weighted
from qsym.qcore import q_bracket
from qsym.ratfun import LaurentPoly, RatFun, ResourceLimitError, ratfun_eq


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


def thm5_side_by_tuples(n, h, r, wa, wb, x):
    """The thm5 side as the paper states it: one term per index tuple."""
    acc = RatFun(0)
    for jt in itertools.product(range(wa), repeat=r):
        s = sum(jt)
        e = wb * sum((h - l) * j for l, j in enumerate(jt))  # h - l + 1, l one-based
        acc = acc + RatFun(LaurentPoly({e: 1})) * beta_weighted(n, h, r, wa, wa * wb * x + wb * s)
    return q_bracket(wa, 1) ** (n - r) * acc


@pytest.mark.parametrize("n, r", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
def test_thm5_side_matches_tuple_enumeration(n, r):
    # every (h, wa, wb, x) inside the old wa**r <= MAX_TUPLES guard at w <= 4, r <= 3
    for h in (r, r + 1, r + 3, -n - 1):
        for wa, wb in itertools.product(range(1, 5), repeat=2):
            for x in (0, 1):
                got = idn._thm5_side(n, h, r, wa, wb, x)
                assert ratfun_eq(got, thm5_side_by_tuples(n, h, r, wa, wb, x)), (h, wa, wb, x)


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


@pytest.mark.parametrize("threads, cpus, expected", [
    (10_000, 3, 3), (2, 8, 2), (64, None, None), (5, 8, 4),
])
def test_sweep_clamps_workers_before_the_pool_starts(monkeypatch, threads, cpus, expected):
    cfg = SweepConfig(identities=("recurrence",), ns=(0, 1, 2, 3))
    monkeypatch.setattr(idn.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(idn, "ProcessPoolExecutor", _SerialPool)
    _SerialPool.seen = []
    reports = [r.to_json_line() for r in sweep(cfg, threads=threads)]
    assert _SerialPool.seen == ([] if expected is None else [expected])
    assert reports == [r.to_json_line() for r in sweep(cfg, threads=1)]
