"""Workload inputs, made from a seed.  Imports nothing from qsym.

Seed 0 is the listed set.  Any other seed draws a sample of the same size
from an enclosing grid.  The enclosing grids only vary inputs that leave the
cost profile alone, because runs with different seeds are compared with each
other:

* sweep: the listed thm3-thm6 grid at x = 1, enclosed by x in {0, 1};
  other seeds pass ``sample=432, seed=seed`` to ``SweepConfig``.  A sample
  holds some (identity, n, r, h, w1, w2) points at both x values, which share
  cached scaffolds and T-sums, so it runs about 20% faster than seed 0's grid,
  which repeats none: compare seed 0 only with seed 0.
* cli and volkenborn: each listed item is a stratum of variants that differ
  only in an argument that moves the cost by a few percent (``--arg`` of a
  start-up-bound command, ``--base`` of a T-sum, ``x`` of a Volkenborn case);
  a seed picks one variant per stratum.  Items whose cost depends strongly on
  every such argument (``compute beta --n 12 --r 4 --w 6``: 4 s at arg 0,
  minutes at arg 1) are strata of one.

``PERFBENCH_SCALE=tiny`` in the environment swaps in small inputs of the
same shape; the self-tests use it to run the whole harness in seconds.
"""

from __future__ import annotations

import itertools
import json
import os
import random

WORKLOADS = ("sweep", "cli", "volkenborn")


def tiny() -> bool:
    return os.environ.get("PERFBENCH_SCALE") == "tiny"


# -- sweep ----------------------------------------------------------------------

_IDENTITIES = ("thm3", "thm4", "thm5", "thm6")
_SWEEP_GRID = dict(identities=_IDENTITIES, ns=(6, 7, 8), rs=(2, 3),
                   w1s=(2, 3, 4), w2s=(2, 3, 4), h_offsets=(0, 1, 3))  # 432 checks per x
_TINY_GRID = dict(identities=_IDENTITIES, ns=(3,), rs=(2,), w1s=(2, 3), w2s=(2, 3),
                  h_offsets=(0, 1))  # 24 checks per x


def workers() -> int:
    return min(2, os.cpu_count() or 1)


def sweep_config(seed: int) -> dict:
    """Keyword arguments for ``qsym.SweepConfig``."""
    grid = _TINY_GRID if tiny() else _SWEEP_GRID
    if seed == 0:
        return dict(grid, xs=(1,))
    size = len(grid["ns"]) * len(grid["rs"]) * len(grid["w1s"]) * len(grid["w2s"]) * (
        2 + 2 * len(grid["h_offsets"]))
    return dict(grid, xs=(0, 1), sample=size, seed=seed)


def sweep_jobs(seed: int) -> list:
    """The (identity, params) list the sweep must check, in report order.

    Enumerated here rather than taken from ``SweepConfig.jobs()``: the grid
    order (identity, n, r, [h], w1, w2, x) and ``random.Random(seed).sample``
    are the documented behaviour of ``--sample``/``--seed``.
    """
    kw = sweep_config(seed)
    jobs = []
    for ident in kw["identities"]:
        for n, r in itertools.product(kw["ns"], kw["rs"]):
            hs = [None] if ident in ("thm3", "thm4") else [r + off for off in kw["h_offsets"]]
            for h, w1, w2, x in itertools.product(hs, kw["w1s"], kw["w2s"], kw["xs"]):
                params = {"n": n, "r": r, "w1": w1, "w2": w2, "x": x}
                if h is not None:
                    params["h"] = h
                jobs.append((ident, params))
    if "sample" in kw:
        idx = sorted(random.Random(kw["seed"]).sample(range(len(jobs)), kw["sample"]))
        jobs = [jobs[i] for i in idx]
    return jobs


def sweep_expected_lines(seed: int) -> list:
    """Every identity holds, so each report line is known before the run."""
    return [json.dumps({"identity": ident, "params": params, "holds": True}, sort_keys=True)
            for ident, params in sweep_jobs(seed)]


# -- cli ------------------------------------------------------------------------

# slot -> variants; each variant is the argv after "python -m qsym".
CLI_STRATA = (
    ("beta12", ("compute beta --n 12 --r 4 --w 6",)),
    ("beta8", ("compute beta --n 8 --r 3 --w 3 --arg 1",)),
    ("beta_h", ("compute beta-h --n 6 --h 4 --r 2 --w 2 --arg 0",
                "compute beta-h --n 6 --h 4 --r 2 --w 2 --arg 1")),
    ("tsum", ("compute tsum --n 6 --i 2 --r 3 --wlim 4 --base 1",
              "compute tsum --n 6 --i 2 --r 3 --wlim 4 --base 2")),
    ("tsum_h", ("compute tsum-h --n 6 --i 2 --h 4 --r 3 --wlim 4 --base 1",
                "compute tsum-h --n 6 --i 2 --h 4 --r 3 --wlim 4 --base 2")),
    ("table", ("table --n 0..8 --r 2 --w 2 --arg 0,1",)),
    ("verify_t1", ("verify --threads 1",)),
    ("verify_t2", ("verify --threads WORKERS",)),
    ("volkenborn", ("volkenborn --family weighted --n 1 --h 2 --r 1 --p 3 --N 3 --x 0",
                    "volkenborn --family weighted --n 1 --h 2 --r 1 --p 3 --N 3 --x 1")),
    ("beta0", ("compute beta --n 0", "compute beta --n 0 --w 2")),
    ("beta1_pretty", ("compute beta --n 1 --format pretty",
                      "compute beta --n 1 --arg 1 --format pretty")),
)
_TINY_CLI = {
    "beta12": ("compute beta --n 3 --r 2 --w 2",),
    "beta8": ("compute beta --n 2 --r 2 --w 2 --arg 1",),
    "beta_h": ("compute beta-h --n 2 --h 3 --r 2",),
    "tsum": ("compute tsum --n 2 --i 1 --r 2 --wlim 2",),
    "tsum_h": ("compute tsum-h --n 2 --i 1 --h 3 --r 2 --wlim 2",),
    "table": ("table --n 0..2",),
    "verify_t1": ("verify --identity thm4 --max-n 2 --threads 1",),
    "verify_t2": ("verify --identity thm4 --max-n 2 --threads WORKERS",),
}


def _cli_strata() -> tuple:
    if not tiny():
        return CLI_STRATA
    return tuple((slot, _TINY_CLI.get(slot, variants)) for slot, variants in CLI_STRATA)


def _pick(strata, seed: int) -> list:
    rng = random.Random(seed)
    return [(slot, variants[0] if seed == 0 else rng.choice(variants)) for slot, variants in strata]


def cli_commands(seed: int) -> list:
    """(slot, argv) for the 11 commands of one pass, in run order."""
    return [(slot, cmd.replace("WORKERS", str(workers())).split())
            for slot, cmd in _pick(_cli_strata(), seed)]


def cli_variants() -> list:
    return [v.replace("WORKERS", str(workers())) for _, vs in _cli_strata() for v in vs]


# -- volkenborn -----------------------------------------------------------------

# (family, params without x, p, N); every case stays inside PadicContext's default budget.
_VOLK_CASES = (
    ("weighted", {"n": 2, "h": 4, "r": 3}, 3, 4),
    ("weighted", {"n": 3, "h": 3, "r": 2}, 5, 3),
    ("weighted", {"n": 4, "h": -6, "r": 2}, 7, 2),
    ("weighted", {"n": 2, "h": 2, "r": 1}, 5, 5),
    ("multi", {"n": 3, "r": 2}, 5, 4),
    ("single", {"n": 6}, 5, 5),
)
# x values per case; a single value where the case's cost moves with x.
_VOLK_XS = ((0, 1), (0,), (0, 1), (0,), (0, 1), (0, 1))

_TINY_VOLK = (
    ("weighted", {"n": 1, "h": 2, "r": 1}, 3, 2),
    ("multi", {"n": 2, "r": 2}, 3, 2),
    ("single", {"n": 2}, 3, 2),
)


def volkenborn_strata() -> tuple:
    cases, xs = (_TINY_VOLK, ((0, 1),) * 3) if tiny() else (_VOLK_CASES, _VOLK_XS)
    return tuple((f"case{i}", tuple((fam, dict(params, x=x), p, N) for x in case_xs))
                 for i, ((fam, params, p, N), case_xs) in enumerate(zip(cases, xs)))


def volkenborn_cases(seed: int) -> list:
    """(slot, (family, params, p, N)) for the cases of one pass."""
    return _pick(volkenborn_strata(), seed)


def volkenborn_key(case) -> str:
    fam, params, p, N = case
    return json.dumps([fam, params, p, N], sort_keys=True)
