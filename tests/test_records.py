"""Contract of the seven parameter and result records: immutable named tuples
whose fields, defaults and checks are part of the public API."""

import pickle
from fractions import Fraction

import pytest

from qsym import (
    BetaQuery,
    CheckReport,
    ConvergenceReport,
    DegenerateWeightError,
    GuardLimits,
    PadicContext,
    QsymDomainError,
    RatFun,
    ResourceLimitError,
    SweepConfig,
    WeightedBetaQuery,
)
from qsym.identities import IDENTITIES

# (record, positional arguments, keyword form of the same record, every field
# of the record with the defaults filled in)
CONSTRUCTIONS = [
    (BetaQuery, (3,), {"n": 3}, {"n": 3, "r": 1, "w": 1, "arg": 0}),
    (BetaQuery, (3, 2, 4, -1), {"arg": -1, "w": 4, "r": 2, "n": 3},
     {"n": 3, "r": 2, "w": 4, "arg": -1}),
    (WeightedBetaQuery, (2, 5), {"h": 5, "n": 2}, {"n": 2, "h": 5, "r": 1, "w": 1, "arg": 0}),
    (WeightedBetaQuery, (2, -3, 2, 3, 1), {"n": 2, "h": -3, "r": 2, "w": 3, "arg": 1},
     {"n": 2, "h": -3, "r": 2, "w": 3, "arg": 1}),
    (CheckReport, ("thm3", {"n": 1}, RatFun(1), RatFun(2), False),
     {"identity": "thm3", "params": {"n": 1}, "lhs": RatFun(1), "rhs": RatFun(2), "holds": False},
     {"identity": "thm3", "params": {"n": 1}, "lhs": RatFun(1), "rhs": RatFun(2), "holds": False}),
    (GuardLimits, (), {}, {"max_n": 12, "max_r": 4, "max_w": 6, "max_abs_x": 4, "max_abs_h": 8}),
    (GuardLimits, (3,), {"max_n": 3}, {"max_n": 3, "max_r": 4, "max_w": 6, "max_abs_x": 4,
                                       "max_abs_h": 8}),
    (SweepConfig, (), {},
     {"identities": IDENTITIES, "ns": (0, 1, 2), "rs": (1, 2), "w1s": (1, 2), "w2s": (1, 2),
      "xs": (0, 1), "hs": None, "h_offsets": (0, 1, 3), "guards": GuardLimits(),
      "sample": None, "seed": 0}),
    (SweepConfig, (("thm3",), (4,)), {"identities": ("thm3",), "ns": (4,)},
     {"identities": ("thm3",), "ns": (4,), "rs": (1, 2), "w1s": (1, 2), "w2s": (1, 2),
      "xs": (0, 1), "hs": None, "h_offsets": (0, 1, 3), "guards": GuardLimits(),
      "sample": None, "seed": 0}),
    (PadicContext, (5,), {"p": 5}, {"p": 5, "q0": Fraction(6), "Nmax": 4, "budget": 10**6}),
    (PadicContext, (2,), {"p": 2}, {"p": 2, "q0": Fraction(5), "Nmax": 4, "budget": 10**6}),
    (PadicContext, (5, 11, 3, 625), {"budget": 625, "Nmax": 3, "q0": 11, "p": 5},
     {"p": 5, "q0": Fraction(11), "Nmax": 3, "budget": 625}),
    (PadicContext, (5, "11/6"), {"p": 5, "q0": Fraction(11, 6)},
     {"p": 5, "q0": Fraction(11, 6), "Nmax": 4, "budget": 10**6}),
    (ConvergenceReport, ("single", {"n": 2}, 5, Fraction(6), [(1, 1), (2, 2)], True),
     {"family": "single", "params": {"n": 2}, "p": 5, "q0": Fraction(6),
      "points": [(1, 1), (2, 2)], "monotone": True},
     {"family": "single", "params": {"n": 2}, "p": 5, "q0": Fraction(6),
      "points": [(1, 1), (2, 2)], "monotone": True}),
]

RECORDS = [BetaQuery, WeightedBetaQuery, CheckReport, GuardLimits, SweepConfig, PadicContext,
           ConvergenceReport]

# (valid record, fields replaced, exception type, exact message)
REFUSALS = [
    (BetaQuery(3), {"n": -1}, QsymDomainError, "degree n must be >= 0, got -1"),
    (BetaQuery(3), {"r": 0}, QsymDomainError, "order r must be >= 1, got 0"),
    (BetaQuery(3), {"w": 0}, QsymDomainError, "base exponent w must be >= 1, got 0"),
    (WeightedBetaQuery(2, 5), {"n": -1}, QsymDomainError, "degree n must be >= 0, got -1"),
    (WeightedBetaQuery(2, 5), {"r": 0}, QsymDomainError, "order r must be >= 1, got 0"),
    (WeightedBetaQuery(2, 5), {"w": 0}, QsymDomainError, "base exponent w must be >= 1, got 0"),
    (WeightedBetaQuery(2, 5), {"h": -2}, DegenerateWeightError,
     "h=-2 is degenerate for n=2, r=1: some factor j+h-k with 0<=j<=2, 0<=k<1 is zero"),
    (WeightedBetaQuery(2, 5), {"h": 0, "r": 3}, DegenerateWeightError,
     "h=0 is degenerate for n=2, r=3: some factor j+h-k with 0<=j<=2, 0<=k<3 is zero"),
    (PadicContext(5), {"p": 7, "budget": 5}, ResourceLimitError, "p = 7 exceeds the budget 5"),
    (PadicContext(5), {"p": 6, "q0": 7}, QsymDomainError, "p = 6 is not prime"),
    (PadicContext(5), {"q0": 1}, QsymDomainError,
     "q0 = 1 is excluded: the stage sums divide by 1 - q0"),
    (PadicContext(5), {"q0": Fraction(3)}, QsymDomainError,
     "q0 = 3 too far from 1: need v_5(1 - q0) >= 1"),
    (PadicContext(2), {"q0": Fraction(3)}, QsymDomainError,
     "q0 = 3 too far from 1: need v_2(1 - q0) >= 2"),
    (PadicContext(5), {"q0": Fraction(1, 5)}, QsymDomainError,
     "q0 = 1/5 too far from 1: need v_5(1 - q0) >= 1"),
    (PadicContext(5), {"Nmax": 0}, QsymDomainError, "Nmax must be >= 1"),
    (PadicContext(5), {"budget": 0}, QsymDomainError, "budget must be >= 1, got 0"),
    (SweepConfig(), {"ns": ()}, QsymDomainError, "empty range for n"),
    (SweepConfig(), {"rs": (5,)}, ResourceLimitError, "r range (5,) outside guard 1..4"),
    (SweepConfig(), {"xs": (5,)}, ResourceLimitError, "x range (5,) outside guard |x| <= 4"),
    (SweepConfig(), {"identities": ("nope",)}, QsymDomainError, "unknown identities: ['nope']"),
    (SweepConfig(), {"sample": -1}, QsymDomainError, "sample must be >= 0, got -1"),
    (SweepConfig(), {"hs": ()}, QsymDomainError, "empty range for h"),
    (SweepConfig(), {"h_offsets": ()}, QsymDomainError, "empty range for h"),
]


SAMPLES = [(record, args) for record, args, _, _ in CONSTRUCTIONS]


def _name(value):
    return value.__name__ if isinstance(value, type) else None


@pytest.mark.parametrize("record, args, kwargs, fields", CONSTRUCTIONS, ids=_name)
def test_positional_and_keyword_construction_fill_the_defaults(record, args, kwargs, fields):
    by_position, by_keyword = record(*args), record(**kwargs)
    assert by_position == by_keyword
    assert by_position._asdict() == fields
    assert tuple(fields) == record._fields
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert type(getattr(by_position, name)) is type(value)


def test_sweep_configs_share_one_default_guard():
    assert SweepConfig().guards is SweepConfig(ns=(4,)).guards


@pytest.mark.parametrize("valid, bad, exc, message", REFUSALS,
                         ids=lambda v: type(v).__name__ if isinstance(v, tuple) else None)
def test_refusals_keep_type_and_message_through_replace(valid, bad, exc, message):
    record = type(valid)
    with pytest.raises(exc) as direct:
        record(**{**valid._asdict(), **bad})
    with pytest.raises(exc) as replaced:
        valid._replace(**bad)
    with pytest.raises(exc) as made:
        record._make({**valid._asdict(), **bad}.values())
    for info in (direct, replaced, made):
        assert type(info.value) is exc and str(info.value) == message


def test_replace_of_a_valid_field_builds_a_checked_record():
    assert BetaQuery(3)._replace(r=2) == BetaQuery(3, 2)
    assert type(BetaQuery(3)._replace(r=2)) is BetaQuery
    assert PadicContext(5, Fraction(11, 6))._replace(q0=None).q0 == Fraction(6)
    assert PadicContext(5)._replace(q0=11).q0 == Fraction(11)
    assert type(PadicContext(5)._replace(q0=11).q0) is Fraction
    assert SweepConfig()._replace(seed=3).seed == 3


@pytest.mark.parametrize("record, args", SAMPLES, ids=_name)
def test_repr_names_every_field(record, args):
    rec = record(*args)
    fields = ", ".join(f"{name}={value!r}" for name, value in rec._asdict().items())
    assert repr(rec) == f"{record.__name__}({fields})"


def test_repr_examples():
    assert repr(BetaQuery(3)) == "BetaQuery(n=3, r=1, w=1, arg=0)"
    assert repr(PadicContext(5)) == "PadicContext(p=5, q0=Fraction(6, 1), Nmax=4, budget=1000000)"
    assert repr(GuardLimits()) == ("GuardLimits(max_n=12, max_r=4, max_w=6, max_abs_x=4, "
                                   "max_abs_h=8)")


@pytest.mark.parametrize("record, args", SAMPLES, ids=_name)
def test_records_with_equal_fields_compare_equal(record, args):
    rec = record(*args)
    assert rec == record(*args) and not rec != record(*args)


@pytest.mark.parametrize("record, args", SAMPLES, ids=_name)
def test_fields_cannot_be_assigned(record, args):
    rec = record(*args)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1  # __slots__ = (): no instance dict


@pytest.mark.parametrize("record, args", SAMPLES, ids=_name)
def test_pickle_round_trips(record, args):
    rec = record(*args)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is record and back == rec


def test_every_record_is_covered():
    assert {r for r, _, _, _ in CONSTRUCTIONS} == set(RECORDS)
    assert {type(v) for v, _, _, _ in REFUSALS} == {BetaQuery, WeightedBetaQuery, PadicContext,
                                                   SweepConfig}
