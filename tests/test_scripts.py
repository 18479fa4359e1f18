"""Smoke tests for the scripts under scripts/: they import the package the way
a user runs them and must keep working as it changes."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_convergence_study_small_run():
    proc = run_script("convergence_study.py", "--primes", "3", "--max-n", "1", "--nmax", "2")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:3] == ["p", "q0", "family"]
    assert len(rows) == 12  # n in {0, 1}, x in {0, 1}, three families
    assert all("NOT MONOTONE" not in row for row in rows)


def test_convergence_study_default_output_is_pinned():
    proc = run_script("convergence_study.py")
    assert proc.returncode == 0, proc.stderr
    assert (hashlib.sha256(proc.stdout.encode()).hexdigest()
            == "017000c47dcb7017ea3172f332a1f3bc09d60e38d8053345054e50396766255d")


def test_verify_identities_battery_validates():
    path = SCRIPTS / "verify_identities.py"
    spec = importlib.util.spec_from_file_location("verify_identities", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines BATTERY; main() is not called
    assert module.BATTERY
    for name, cfg in module.BATTERY:
        assert cfg.jobs(), name  # jobs() validates the grid against the guards


def test_verify_identities_battery_holds_end_to_end():
    # The README's command: every battery row, then the verdict line.  The wall
    # times go to stderr, one line per battery, so stdout is pinned byte for byte.
    proc = run_script("verify_identities.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows, verdict = proc.stdout.splitlines()
    assert header.split() == ["battery", "checks", "failures"]
    assert [row.split()[2] for row in rows] == ["0"] * 7
    assert sum(int(row.split()[1]) for row in rows) == 2827
    assert verdict == "all identities hold"
    assert (hashlib.sha256(proc.stdout.encode()).hexdigest()
            == "57822e74ab615bb3242e799fa1c4e21f669d9c73efacb1d912ad76012581cacf")
    assert [line.split()[0] for line in proc.stderr.splitlines()] == [r.split()[0] for r in rows]


@pytest.mark.parametrize("argv", [["verify_identities.py"],
                                  ["convergence_study.py", "--primes", "3", "--max-n", "1"]],
                         ids=["verify_identities", "convergence_study"])
@pytest.mark.parametrize("buffered", [False, True])
def test_closed_stdout_pipe_exits_141_quietly(argv, buffered):
    # As for qsym itself: the reader closes the pipe before the script writes,
    # as `| head -1` may, and that is neither an identity failure (exit 1) nor
    # a traceback.  Buffered, the battery runs to the end and its timings are
    # all that reaches stderr.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert all(line.endswith(" s") for line in err.splitlines()), err
    assert buffered or err == ""
