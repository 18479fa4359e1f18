"""Regenerate ``oracles.json``, the expected outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_oracles.py

Records, from the qsym in ``src/`` and for both scales (full and
``PERFBENCH_SCALE=tiny``): the sha256 of the seed-0 sweep's JSON
lines (which must be identical at 1 and at min(2, cpu_count) workers and
equal to the all-hold lines of ``workloads.sweep_expected_lines``), the
sha256 of stdout and the exit code of every cli command variant, and the
valuation list and ``monotone`` flag of every Volkenborn case variant.
Run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import qsym  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def record(oracles: dict) -> bool:
    """Add the current scale's expected outputs to ``oracles``; False on a wrong output."""
    cfg = qsym.SweepConfig(**workloads.sweep_config(0))
    serial = [r.to_json_line() for r in qsym.sweep(cfg)]
    pooled = [r.to_json_line() for r in qsym.sweep(cfg, threads=workloads.workers())]
    if serial != pooled or serial != workloads.sweep_expected_lines(0):
        print("error: seed-0 sweep output is not the all-hold report list", file=sys.stderr)
        return False
    oracles["sweep"][os.environ["PERFBENCH_SCALE"]] = run.digest(serial)

    cli = oracles["cli"]
    for cmd in workloads.cli_variants():
        proc = subprocess.run([sys.executable, "-m", "qsym", *cmd.split()],
                              capture_output=True, check=False, cwd=run.ROOT)
        if proc.returncode != 0:
            print(f"error: {cmd} exited {proc.returncode}", file=sys.stderr)
            return False
        cli[cmd] = {"rc": proc.returncode, "sha256": hashlib.sha256(proc.stdout).hexdigest()}

    for _, variants in workloads.volkenborn_strata():
        for case in variants:
            fam, params, p, N = case
            report = qsym.convergence_report(fam, params, qsym.PadicContext(p=p, Nmax=N))
            if not report.monotone:
                print(f"error: {case} is not monotone", file=sys.stderr)
                return False
            oracles["volkenborn"][workloads.volkenborn_key(case)] = {
                "points": [[n, str(v)] for n, v in report.points], "monotone": report.monotone}
    return True


def main() -> int:
    oracles = {"sweep": {}, "cli": {}, "volkenborn": {}}
    for scale in ("full", "tiny"):
        os.environ["PERFBENCH_SCALE"] = scale
        if not record(oracles):
            return 1
    with open(BENCH / "oracles.json", "w") as fh:
        json.dump(oracles, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
