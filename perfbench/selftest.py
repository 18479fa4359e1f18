"""Self-tests of the benchmark harness, on the tiny inputs (``PERFBENCH_SCALE=tiny``).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest run;
together they start at most min(2, cpu_count) pool workers at a time.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

os.environ["PERFBENCH_SCALE"] = "tiny"
BENCH = Path(__file__).resolve().parent
PATHS = [str(BENCH), str(BENCH.parent / "src")]
sys.path[:0] = PATHS

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@functools.lru_cache(maxsize=None)
def _traced(workload: str) -> tuple:
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        return run.traced_passes(run.Runner(tmp), workload, 0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_caches_are_found_and_cold_at_pass_start():
    import qsym

    caches = spans.qsym_caches()
    assert len(caches) == 7
    qsym.beta_higher(2, 1, 1, 0)
    assert any(fn.cache_info().currsize for fn in caches.values())  # the check can fail
    result = run.run_pass(run.Runner(run.ROOT), "sweep-serial", 0)
    assert result["caches_empty"] is True


def test_every_binding_is_wrapped():
    out = _python(
        "import json, spans\n"
        "t = spans.Tracer()\n"
        "import qsym, qsym.identities as idn, qsym.qbernoulli as qb, qsym.cli as cli\n"
        "from qsym.ratfun import RatFun, LaurentPoly\n"
        "wrapped = {id(w) for _, w in t.originals.values()}\n"
        "probes = [idn._CHECKERS['thm5'], idn.beta_higher, idn.t_sum_h, qb.bracket_poly,\n"
        "          cli.sweep, qsym.sweep, RatFun.__radd__, RatFun.__rmul__, LaurentPoly.__rmul__]\n"
        "print(json.dumps([t.unwrapped_bindings(), all(id(p) in wrapped for p in probes)]))\n")
    left, probes_wrapped = json.loads(out)
    assert left == []
    assert probes_wrapped


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_records_each_listed_layer_metric(workload):
    _, metrics = _traced(workload)
    assert set(metrics) == set(spans.PER_LAYER)
    assert [k for k in spans.LAYER_MAP[workload] if not metrics[k]] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_match_untraced(workload):
    results, _ = _traced(workload)
    base, traced = results[0], results[1]
    assert base["outputs"] and traced["outputs"] == base["outputs"]
    oracles = run.load_oracles()
    assert sum(run.count_failures(workload, 0, r, oracles) for r in results) == 0


def test_thm4_twist_is_counted_as_failed(monkeypatch):
    import qsym.identities as idn

    monkeypatch.setattr(idn, "_THM4_LHS_TWIST", 1)
    result = dict(worker._sweep_serial({"seed": 0}), kind="sweep-serial")
    failed = run.count_failures("sweep", 0, result, run.load_oracles())
    assert failed / run.attempted(result) > 0


def test_inputs_stay_inside_the_default_guards(monkeypatch):
    import qsym

    assert workloads.workers() == min(2, os.cpu_count() or 1)
    for scale in ("full", "tiny"):
        monkeypatch.setenv("PERFBENCH_SCALE", scale)
        for seed in (0, 1, 2):
            cfg = qsym.SweepConfig(**workloads.sweep_config(seed))
            assert len(cfg.jobs()) == len(workloads.sweep_jobs(seed))
            assert [(i, p) for i, p in cfg.jobs()] == workloads.sweep_jobs(seed)
        for _, variants in workloads.volkenborn_strata():
            for fam, params, p, N in variants:
                r = params.get("r", 1)
                assert p ** (r * N) <= qsym.PadicContext(p=p).budget


def test_benchmark_json_lists_the_reported_metrics():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (k, v["unit"], v["better"]) for k, v in spans.PER_LAYER.items()]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
