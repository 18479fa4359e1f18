"""One pass of a workload, run in a fresh interpreter so every qsym cache starts empty.

    PYTHONPATH=src python3 perfbench/worker.py '<spec as JSON>'

``spec["kind"]`` is one of:

* ``sweep-serial``: each job of the seed's sweep as its own ``qsym.sweep``
  call, timed one by one under a ``speed.Sampler``;
* ``sweep-pool``: the whole sweep as one ``qsym.sweep`` call with
  min(2, cpu_count) workers;
* ``pool-probe``: a two-job sweep serially and on the pool; the difference is
  the pool's start-up cost;
* ``volkenborn``: ``convergence_report`` for each case, timed like the
  serial sweep;
* ``cli``: one qsym command through ``qsym.cli.main`` under the tracer
  (stdout is the command's own output, the exit code is main's).

Every kind but ``cli`` prints one JSON object as its last stdout line.  With
``spec["spans"]`` set, the pass runs under ``spans.Tracer`` (restricted to
the span names in ``spec["only"]`` when given) and dumps its spans to that
path.
"""

from __future__ import annotations

import json
import sys
import time

import speed
import workloads


def _tracer(spec):
    if not spec.get("spans"):
        return None
    import spans

    return spans.Tracer(only=spec.get("only"))


def _timed(windows: list, sampler, outputs: list) -> dict:
    return {"lat": [t1 - t0 for t0, t1 in windows], "speeds": sampler.factors(windows),
            "outputs": outputs}


def _sweep_serial(spec):
    import qsym

    windows, lines = [], []
    with speed.Sampler() as sampler:
        for ident, params in workloads.sweep_jobs(spec["seed"]):
            cfg = qsym.SweepConfig(identities=(ident,), ns=(params["n"],), rs=(params["r"],),
                                   w1s=(params["w1"],), w2s=(params["w2"],), xs=(params["x"],),
                                   hs=(params["h"],) if "h" in params else None)
            t0 = time.perf_counter()
            (report,) = qsym.sweep(cfg)
            windows.append((t0, time.perf_counter()))
            lines.append(report.to_json_line())
    return _timed(windows, sampler, lines)


def _sweep_pool(spec):
    import qsym

    cfg = qsym.SweepConfig(**workloads.sweep_config(spec["seed"]))
    t0 = time.perf_counter()
    reports = qsym.sweep(cfg, threads=workloads.workers())
    elapsed = time.perf_counter() - t0
    return {"elapsed": elapsed, "outputs": [r.to_json_line() for r in reports]}


def _pool_probe(spec):
    import qsym

    cfg = qsym.SweepConfig(identities=("recurrence",), ns=(0, 1))
    t0 = time.perf_counter()
    qsym.sweep(cfg, threads=1)
    t1 = time.perf_counter()
    qsym.sweep(cfg, threads=workloads.workers())
    t2 = time.perf_counter()
    return {"pool_start_s": (t2 - t1) - (t1 - t0), "outputs": []}


def _volkenborn(spec):
    import qsym

    windows, outputs = [], []
    with speed.Sampler() as sampler:
        for _, (family, params, p, N) in workloads.volkenborn_cases(spec["seed"]):
            t0 = time.perf_counter()
            report = qsym.convergence_report(family, params, qsym.PadicContext(p=p, Nmax=N))
            windows.append((t0, time.perf_counter()))
            outputs.append({"points": [[n, str(v)] for n, v in report.points],
                            "monotone": report.monotone})
    return _timed(windows, sampler, outputs)


def _cli(spec):
    t0 = time.perf_counter()
    import qsym.cli

    import_s = time.perf_counter() - t0
    tracer = _tracer(spec)
    main_start = time.time()
    t0 = time.perf_counter()
    try:
        code = qsym.cli.main(spec["argv"])
    finally:
        sys.stdout.flush()
    main_s = time.perf_counter() - t0
    tracer.dump(spec["spans"], {"slot": spec["slot"], "main_s": main_s, "import_s": import_s,
                                "startup_s": main_start - spec["spawned_at"]})
    return code


PASSES = {"sweep-serial": _sweep_serial, "sweep-pool": _sweep_pool,
          "pool-probe": _pool_probe, "volkenborn": _volkenborn}


def main(spec: dict) -> int:
    if spec["kind"] == "cli":
        return _cli(spec)
    import qsym  # noqa: F401

    import spans

    empty = all(fn.cache_info().currsize == 0 for fn in spans.qsym_caches().values())
    tracer = _tracer(spec)
    result = PASSES[spec["kind"]](spec)
    result["caches_empty"] = empty
    if tracer is not None:
        tracer.dump(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
