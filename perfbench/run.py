"""Benchmark for qsym: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a qsym checkout; the program is imported from ``src/``
(``PYTHONPATH=src``), nothing needs installing.  Every pass starts a new
interpreter, so qsym's caches are cold in each, and load comes from one
closed-loop client (plus min(2, cpu_count) pool workers in the sweep's pool
pass).  Passes repeat until ``--seconds`` would be exceeded (at least one of
each kind).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once with spans around qsym's public functions and prints
the per-layer metrics, including the tracing overhead.  The last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
SETUP_REPS = 15

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class HarnessError(RuntimeError):
    """A pass could not run at all (as opposed to running and giving wrong output)."""


class Runner:
    """Spawns passes under one deadline, in one scratch directory inside the checkout."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        # Pinned to one CPU, so that the speed sampler runs on the CPU that the
        # cli commands and set-up imports run on (unpinned, the sampler follows
        # the other CPU and the normalised cli figures spread more than raw
        # ones); the pool pass gets them all.
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self.cpus)})
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._files = itertools.count()

    def spawn(self, argv: list, all_cpus: bool = False) -> tuple:
        """Run argv to completion; returns (CompletedProcess, wall seconds)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("run deadline reached")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=timeout, preexec_fn=self._unpin if all_cpus else None)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{argv[1:4]} did not finish before the run deadline") from exc
        return proc, time.perf_counter() - t0

    def _unpin(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def span_file(self) -> str:
        return str(self.tmp / f"spans{next(self._files)}.json")

    def worker(self, spec: dict) -> dict:
        proc, wall = self.spawn([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                                all_cpus=spec["kind"] == "sweep-pool")
        if proc.returncode != 0:
            raise HarnessError(f"{spec['kind']} pass exited {proc.returncode}:\n"
                               + proc.stderr.decode(errors="replace")[-3000:])
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        result.update(kind=spec["kind"], wall=wall)
        if spec.get("spans"):
            with open(spec["spans"]) as fh:
                result["dump"] = json.load(fh)
        return result

    def cli_pass(self, seed: int, traced: bool) -> dict:
        """The seed's commands one after another; each is its own process."""
        windows, outputs, dumps, stdout_bytes = [], [], [], 0
        with speed.Sampler() as sampler:
            for slot, argv in workloads.cli_commands(seed):
                t0 = time.perf_counter()
                proc = self._cli_command(slot, argv, traced, dumps)
                windows.append((t0, time.perf_counter()))
                stdout_bytes += len(proc.stdout)
                outputs.append({"cmd": " ".join(argv), "rc": proc.returncode,
                                "sha256": hashlib.sha256(proc.stdout).hexdigest()})
        lat = [t1 - t0 for t0, t1 in windows]
        return {"kind": "cli", "lat": lat, "speeds": sampler.factors(windows), "wall": sum(lat),
                "outputs": outputs, "caches_empty": True, "dumps": dumps,
                "stdout_bytes": stdout_bytes}

    def _cli_command(self, slot: str, argv: list, traced: bool, dumps: list) -> tuple:
        """One command: ``python -m qsym``, or under the tracer through worker.py."""
        if not traced:
            return self.spawn([sys.executable, "-m", "qsym", *argv])[0]
        spec = {"kind": "cli", "slot": slot, "argv": argv, "spans": self.span_file(),
                "spawned_at": time.time()}
        proc = self.spawn([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)])[0]
        if Path(spec["spans"]).is_file():
            with open(spec["spans"]) as fh:
                dumps.append(json.load(fh))
        return proc

    def setup_s(self, module: str) -> tuple:
        """Median time, raw and normalised, for a fresh interpreter to import ``module``."""
        windows = []
        with speed.Sampler() as sampler:
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                proc = self.spawn([sys.executable, "-c", f"import {module}"])[0]
                windows.append((t0, time.perf_counter()))
                if proc.returncode != 0:
                    raise HarnessError(f"cannot import {module}:\n"
                                       + proc.stderr.decode(errors="replace")[-3000:])
        times = [t1 - t0 for t0, t1 in windows]
        return (statistics.median(times),
                statistics.median(t * f for t, f in zip(times, sampler.factors(windows))))


# -- output checks ------------------------------------------------------------------


def load_oracles() -> dict:
    with open(BENCH / "oracles.json") as fh:
        return json.load(fh)


def digest(lines: list) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def count_failures(workload: str, seed: int, result: dict, oracles: dict) -> int:
    """Operations of one pass whose output differs from the expected one."""
    outputs = result["outputs"]
    if workload == "sweep":
        if result["kind"] == "pool-probe":
            return 0
        expected = workloads.sweep_expected_lines(seed)
        failed = sum(a != b for a, b in zip(outputs, expected)) + abs(len(outputs) - len(expected))
        scale = "tiny" if workloads.tiny() else "full"
        if seed == 0 and not failed and digest(outputs) != oracles["sweep"][scale]:
            failed = len(expected)
        return failed
    if workload == "cli":
        return sum(out["cmd"] not in oracles["cli"]
                   or {"rc": out["rc"], "sha256": out["sha256"]} != oracles["cli"][out["cmd"]]
                   for out in outputs)
    cases = workloads.volkenborn_cases(seed)
    failed = abs(len(outputs) - len(cases))
    for (_, case), out in zip(cases, outputs):
        failed += oracles["volkenborn"].get(workloads.volkenborn_key(case)) != out
    return failed


def attempted(result: dict) -> int:
    return len(result["outputs"])


# -- timed runs ---------------------------------------------------------------------


PLANS = {"sweep": ("sweep-serial", "sweep-pool"), "cli": ("cli",), "volkenborn": ("volkenborn",)}


def run_pass(runner: Runner, kind: str, seed: int, **spec) -> dict:
    if kind == "cli":
        return runner.cli_pass(seed, traced=bool(spec))
    return runner.worker({"kind": kind, "seed": seed, **spec})


def timed_passes(runner: Runner, workload: str, seed: int, seconds: float) -> list:
    plan = PLANS[workload]
    results, last_wall = [], {}
    t0 = time.perf_counter()
    for kind in itertools.cycle(plan):
        if kind in last_wall and len(last_wall) == len(plan):
            if time.perf_counter() - t0 + last_wall[kind] > seconds:
                break
        res = run_pass(runner, kind, seed)
        last_wall[kind] = res["wall"]
        results.append(res)
    return results


def percentile_with_tail(samples: list, q: int):
    """q-th percentile, or None when fewer than 10 samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100)[q - 1]
    return value if sum(s > value for s in samples) >= 10 else None


def normalised_total(result: dict) -> float:
    return sum(t * f for t, f in zip(result["lat"], result["speeds"]))


def timed_metrics(results: list, setup: tuple) -> tuple:
    """End-to-end metrics (normalised to nominal machine speed), notes, and extra figures."""
    main = [r for r in results if r["kind"] != "sweep-pool"]
    norm = [[t * f for t, f in zip(r["lat"], r["speeds"])] for r in main]
    lat = [t for pass_lat in norm for t in pass_lat]
    # A pass's median, then the median over passes: a pass of six Volkenborn
    # cases has its median in the gap between two cases, where the median of
    # the pooled samples would follow single outliers.
    metrics = {
        "ops_per_s": statistics.median(len(p) / sum(p) for p in norm),
        "op_p50_ms": statistics.median(statistics.median(p) for p in norm) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": setup[1],
    }
    raw_rate = statistics.median(len(r["lat"]) / sum(r["lat"]) for r in main)
    raw_p50 = statistics.median(statistics.median(r["lat"]) for r in main) * 1000
    notes = {
        "ops_per_s": f"median of {len(norm)} passes; raw {raw_rate:.4g}",
        "op_p50_ms": f"median of {len(norm)} pass medians, {len(lat)} samples; raw {raw_p50:.4g}",
        "peak_rss_mb": "largest RSS of any pass process or its children",
        "setup_s": f"median of {SETUP_REPS} fresh interpreters; raw {setup[0]:.4g}",
    }
    p90 = percentile_with_tail(lat, 90)
    extra = {"op_p90_ms": (p90 * 1000 if p90 is not None else None,
                           "ms", f"{len(lat)} samples" if p90 is not None
                           else f"not reported: fewer than 10 of {len(lat)} samples beyond it")}
    pool = [r for r in results if r["kind"] == "sweep-pool"]
    if pool:
        extra["ops_per_s_2w"] = (statistics.median(len(r["outputs"]) / r["elapsed"] for r in pool),
                                 "1/s", f"raw, median of {len(pool)} passes, "
                                 f"{workloads.workers()} workers")
    return metrics, notes, extra


# -- traced runs --------------------------------------------------------------------

_SWEEP_KEYS = ("identities.sweep.jobs", "identities.sweep.serial_s", "identities.sweep.pool_s",
               "identities.sweep.scaling_eff_2w")


def traced_passes(runner: Runner, workload: str, seed: int) -> tuple:
    """All passes of a traced run, and the per-layer metrics they give."""
    if workload == "cli":
        base = runner.cli_pass(seed, traced=False)
        traced = runner.cli_pass(seed, traced=True)
        metrics = spans.per_layer(traced["dumps"], {"cli.stdout_bytes": traced["stdout_bytes"]})
        results = [base, traced]
    elif workload == "volkenborn":
        base = run_pass(runner, "volkenborn", seed)
        traced = run_pass(runner, "volkenborn", seed, spans=runner.span_file())
        metrics = spans.per_layer([traced["dump"]], {})
        results = [base, traced]
    else:
        only = ["identities.sweep"]
        base = run_pass(runner, "sweep-serial", seed, spans=runner.span_file(), only=only)
        traced = run_pass(runner, "sweep-serial", seed, spans=runner.span_file())
        pool = run_pass(runner, "sweep-pool", seed, spans=runner.span_file(), only=only)
        probe = run_pass(runner, "pool-probe", seed)
        metrics = spans.per_layer([traced["dump"]], {})
        sweep_only = spans.per_layer([base["dump"], pool["dump"]], {})
        metrics.update({k: sweep_only[k] for k in _SWEEP_KEYS})
        metrics["identities.sweep.pool_start_s"] = probe["pool_start_s"]
        results = [base, traced, pool, probe]
    metrics["trace.overhead"] = normalised_total(traced) / normalised_total(base) - 1
    return results, metrics


# -- entry point --------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    oracles = load_oracles()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(tmp)
        setup = runner.setup_s("qsym.cli" if workload == "cli" else "qsym")
        if trace:
            results, layer = traced_passes(runner, workload, seed)
        else:
            results = timed_passes(runner, workload, seed, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    n_attempted = sum(attempted(r) for r in results)
    n_failed = sum(count_failures(workload, seed, r, oracles) for r in results)
    caches_cold = all(r["caches_empty"] for r in results)
    passes = ", ".join(f"{k}={sum(r['kind'] == k for r in results)}"
                       for k in dict.fromkeys(r["kind"] for r in results))
    print(f"# workload={workload} seed={seed} trace={int(trace)} passes: {passes}")
    print(f"  failed_frac     {n_failed / max(n_attempted, 1):.4f}  "
          f"({n_failed} of {n_attempted} operations)")
    if not caches_cold:
        print("  a pass started with a non-empty qsym cache")

    if trace:
        out = {k: {"value": layer[k], "unit": spans.PER_LAYER[k]["unit"]} for k in spans.PER_LAYER}
        for k, v in out.items():
            print(f"  {k:36s} {v['value']:.6g} {v['unit']}")
    else:
        metrics, notes, extra = timed_metrics(results, setup)
        out = {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in END_TO_END}
        for k, v in out.items():
            print(f"  {k:15s} {v['value']:.6g} {v['unit']}  ({notes[k]})")
        for k, (value, unit, note) in extra.items():
            shown = "-" if value is None else f"{value:.6g}"
            print(f"  {k:15s} {shown} {unit}  ({note})")
    return {"correct": n_failed == 0 and caches_cold, "attempted": n_attempted,
            "failed": n_failed, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qsym" / "__init__.py").is_file():
        print(f"error: no qsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so that peak RSS is each workload's own.
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
