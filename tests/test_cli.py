import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qsym.cli as cli_mod
import qsym.identities as identities_mod
import qsym.qbernoulli as qbernoulli_mod
import qsym.ratfun as ratfun_mod
import qsym.volkenborn as volkenborn_mod
from qsym.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_modules(code: str) -> set:
    """sys.modules after running code in a fresh interpreter with qsym on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code += "\nimport sys; sys.stdout.write('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split("\n"))


def test_cli_import_leaves_the_process_pool_unloaded():
    # concurrent.futures.process is most of qsym's import time; only a sweep
    # on more than one worker needs it.
    assert "concurrent.futures.process" not in _fresh_modules("import qsym.cli")


def test_cli_import_loads_no_module_it_only_needs_on_a_rare_path():
    # dataclasses (with inspect, ast and dis) cost more start-up than the records
    # need; traceback serves only exit 4 and random only a sampled sweep.  The
    # interpreter may load some of them before qsym (a site hook may), so the
    # check is against what an empty program loads.
    added = _fresh_modules("import qsym.cli") - _fresh_modules("pass")
    rare = {"dataclasses", "inspect", "ast", "dis", "traceback", "random"}
    assert not added & rare, sorted(added & rare)


def test_package_import_loads_every_library_module():
    # The benchmark tracer rebinds functions in every qsym module loaded by
    # ``import qsym``; cli and __main__ are the entry points it imports itself.
    library = {f"qsym.{p.stem}" for p in SRC.glob("qsym/*.py")} - {
        "qsym.__init__", "qsym.cli", "qsym.__main__"}
    assert "qsym.volkenborn" in library and library <= _fresh_modules("import qsym")


def test_compute_beta_trivial(capsys):
    code, out, _ = run(capsys, "compute", "beta", "--n", "0", "--r", "3", "--w", "1",
                       "--arg", "0", "--format", "pretty")
    assert code == 0 and out == "1\n"


def test_compute_beta_json(capsys):
    code, out, _ = run(capsys, "compute", "beta", "--n", "1", "--r", "1", "--w", "1", "--arg", "0")
    assert code == 0
    assert json.loads(out) == {"num": [[0, "-1"]], "den": [[0, "1"], [1, "1"]]}


def test_compute_degenerate_weight_exits_2(capsys):
    code, _, err = run(capsys, "compute", "beta-h", "--n", "1", "--h", "0", "--r", "1")
    assert code == 2
    assert "degenerate" in err


# Each command with every flag its family does not take, given at that flag's
# default where it has one: a given flag is refused, whatever its value.
COMPUTE_TAKES = {"beta": "w arg", "beta-h": "h w arg", "tsum": "i wlim base",
                 "tsum-h": "i h wlim base"}
FOREIGN_FLAGS = [
    (("compute", family, "--n", "2", *(("--h", "3") if "h" in takes.split() else ()),
      f"--{flag}", value), f"{family} takes no --{flag}")
    for family, takes in COMPUTE_TAKES.items()
    for flag, value in (("h", "3"), ("w", "1"), ("arg", "0"), ("i", "0"), ("wlim", "1"),
                        ("base", "1"))
    if flag not in takes.split()
] + [
    (("volkenborn", "--family", "single", "--n", "2", "--r", "1"), "single family takes no --r"),
    (("volkenborn", "--family", "single", "--n", "2", "--h", "9"), "single family takes no --h"),
    (("volkenborn", "--family", "multi", "--n", "2", "--h", "9"), "multi family takes no --h"),
]


@pytest.mark.parametrize("argv, message", [
    (("compute", "beta-h", "--n", "1", "--r", "1"), "beta-h needs --h"),
    (("compute", "tsum-h", "--n", "2", "--i", "0"), "tsum-h needs --h"),
    (("volkenborn", "--family", "weighted", "--n", "1"), "weighted family needs --h"),
    (("compute", "tsum", "--n", "2", "--i", "3"), "need 0 <= i <= n, got i=3, n=2"),
    (("compute", "tsum", "--n", "2", "--r", "0"), "order r must be >= 1, got 0"),
    (("compute", "tsum", "--n", "2", "--wlim", "0"), "summation limit must be >= 1, got 0"),
    (("compute", "tsum", "--n", "2", "--base", "0"), "base exponent must be >= 1, got 0"),
] + FOREIGN_FLAGS)
def test_missing_or_bad_parameter_exits_2_with_its_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("exc, code, marker", [
    (RuntimeError("a bug"), 4, "Traceback"),
    (ratfun_mod.QsymDomainError("bad input"), 2, "error: bad input"),
    (ValueError("a bug"), 4, "Traceback"),
])
def test_unmapped_exception_exits_4_with_traceback(capsys, monkeypatch, exc, code, marker):
    # 1 means an identity or convergence failure, so a bug must not exit 1.
    def boom(args):
        raise exc

    monkeypatch.setattr(cli_mod, "run_compute", boom)
    got, out, err = run(capsys, "compute", "beta", "--n", "0")
    assert got == code and out == ""
    assert marker in err and (code == 4) == ("Traceback" in err)


def test_cli_module_runs_as_main():
    # python -m qsym.cli is the same command as python -m qsym: without the
    # module's __main__ guard it would print nothing and exit 0.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    procs = [subprocess.run([sys.executable, "-m", module, "--help"], capture_output=True,
                            text=True, env=env, timeout=60) for module in ("qsym", "qsym.cli")]
    assert [p.returncode for p in procs] == [0, 0]
    assert procs[1].stdout == procs[0].stdout and "verify" in procs[0].stdout


@pytest.mark.parametrize("argv", ["table --n 0..8 --r 2 --w 2 --arg 0,1", "verify --max-n 3",
                                  "compute beta --n 0"])
@pytest.mark.parametrize("buffered", [False, True])
def test_closed_stdout_pipe_exits_141_quietly(argv, buffered):
    # The reader closes the pipe before qsym writes, as `| head -1` may: every
    # write fails, in print or, for output still buffered, in the final flush.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "qsym", *argv.split()], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141 and err == b""


def test_compute_tsum(capsys):
    code, out, _ = run(capsys, "compute", "tsum", "--n", "1", "--i", "0", "--r", "1",
                       "--wlim", "2", "--format", "pretty")
    assert code == 0 and out == "q\n"


@pytest.mark.parametrize("argv, sha256", [
    ("compute beta --n 8 --r 3 --w 3 --arg 1",
     "7269e4542b0adcce61adf93ba24a3e8b5ce37f5fd1d4ed47610484a6265c00f5"),
    ("table --n 0..8 --r 2 --w 2 --arg 0,1",
     "86f5a032e0f18b6a74a3d222136ac07e402dcd6d827259cb4081e131a2732a41"),
    ("verify --identity multiplication --identity thm3 --identity thm4 --identity thm5 "
     "--identity thm6 --max-n 3 --max-r 2 --max-w 3 --verbose",
     "6a587eb932748794b8f04a1f58c91367b2c8dca6b286727edde0cc70846b1f4d"),
    ("verify --identity thm5 --identity thm6 --max-n 2 --max-r 2 --max-w 3 --h=-4,4 --verbose",
     "2333d669d762a2125e433fc3a56523fa6bb213688645fe7edf9f725fa4727b2b"),
    ("verify --identity thm4 --identity thm6 --max-n 4 --max-r 3 --max-w 3 --max-x 2 --h=-6,4 "
     "--verbose", "579d8b61543180a7e0fac198587aa2b04529e95a32be8dab24a08155aab17fa8"),
    ("verify --identity thm3 --identity thm6 --max-n 3 --max-r 2 --max-w 4 --verbose",
     "cb892d1bae01a52ceec43d8345f29246c39d133d68c98e8bfd5e2a5d2c97a499"),
    ("volkenborn --family weighted --n 1 --h 2 --r 1 --p 3 --N 3 --x 0",
     "218c3f28b12ccb80d7be4b582e10ae1fde39f5c5b94c60eb8eb02ca82d2bccdb"),
    ("volkenborn --family single --n 6 --p 5 --N 5",
     "f4f5f412bc483d1bd29d4a74661ac0dfe8d13079887236b310f1e765a73dc9e1"),
    ("volkenborn --family multi --n 3 --r 2 --p 5 --N 4 --x 1",
     "0b6904723eaa3cdf89f25a205272d506035fb99a506e68ca726d7d1bb2cd55b2"),
    ("volkenborn --family weighted --n 4 --h -6 --r 2 --p 7 --N 2",
     "457b9000b5343cea9f206618f991846f69067f3c40de37b3df42c032cf6a7d6c"),
    ("volkenborn --family weighted --n 2 --h 3 --r 2 --p 5 --q0 7/2 --N 2 --x 1",
     "bb98d24f294910c01620b71663a7b41fe386a17631b44685abb8c60f99161a30"),
    ("volkenborn --family weighted --n 3 --h -5 --r 2 --p 2 --N 3 --x 1",
     "fcd75c475adefb25c37c81a5bcb88c2faad20ca8f2f70fd1f5a5fa011a9bfb83"),
    ("volkenborn --family single --n 3 --p 2 --N 6 --x -2",
     "fc8c18820f738ba94fb61da19d6f30dab3f8f1b036fda919d15eb81001fa5d12"),
    ("volkenborn --family single --n 2 --p 5 --N 7",
     "ff40e7c04c15f0d4a06d386af4cea8849ac09cbc5aff002f5be94e1b6277d3c7"),
    ("volkenborn --family weighted --n 2 --h 3 --r 2 --p 5 --q0 7/2 --N 4",
     "6e9f3ef4788248815a775a1a07ef1eef29b587e4780f91923bb5e83b14ebf481"),
    ("volkenborn --family weighted --n 200 --h 19 --r 19 --p 2 --N 1",
     "3526be84ca76990c78549bf4dd68cf7bc7d6cb4f15677e79842cfb5f9ee74fec"),
    ("volkenborn --family weighted --n 5 --h 500 --r 19 --p 2 --N 1",
     "f1898640a8e90a6cc1193cf85275dfc4834cc52465d1dfbb75c1fa647b81d82b"),
    ("compute beta --n 12 --r 4 --w 6",
     "08d734b811e739217afe1dba0258b1fdc4cd89c83eabbffbd41475e15870877c"),
    ("compute beta --n 20 --r 4 --w 6",
     "591188fb09fa3317530827c55beccaab0a87793700993cdb722ca404a81b7f3a"),
    ("compute beta-h --n 6 --h 4 --r 2 --w 2 --arg 1",
     "b5a8828c20846d70e8088dc3113c82e7f9a87f5430066e1e7827cfefa136607f"),
    ("compute tsum --n 6 --i 2 --r 3 --wlim 4 --base 2",
     "187fc685932aede5b37fb1ef994625e6bd2867533d481307818f95cfaf7d3fb5"),
    ("compute tsum-h --n 6 --i 2 --h 4 --r 3 --wlim 4 --base 2",
     "28b5a61d40af11d98812d4dd5756135bf0efc483ff36b1f72c778f95841c6b10"),
    ("compute beta --n 1 --arg 1 --format pretty",
     "43b58797fea7fe24d9654bb2c12a17eb707d08ec159074bb36fb89a36b1664cd"),
], ids=["beta8", "table", "verbose-thm3-6", "verbose-weighted-h", "verbose-thm4-6-neg-h",
        "verbose-thm3-6-w4", "volk-weighted-r1", "volk-single-n6", "volk-multi",
        "volk-weighted-neg-h", "volk-frac-q0", "volk-p2", "volk-p2-neg-x", "volk-single-N7",
        "volk-frac-q0-N4", "volk-large-r-n200", "volk-large-r-h500", "beta12", "beta20",
        "beta-h-arg1", "tsum-base2", "tsum-h-base2", "beta1-arg1-pretty"])
def test_reduced_output_is_byte_identical(capsys, argv, sha256):
    # Digests of beta8 and table were taken when the PRS gcd alone reduced the
    # output, those of the verbose sweeps while each family still had its own
    # side builders, and the volkenborn ones while each stage sum still walked
    # s = 0..r(p^N - 1): the heuristic gcd, the shared builders and the
    # closed-form stage sums must match.  The five compute digests of the cli
    # benchmark's commands were taken before exact_div lost its digit-list path,
    # the two deepest volkenborn ones while each stage kept (1-Q)^r uncancelled,
    # and the thm4/thm6 one while each convolution side divided every T-sum.
    # The w = 4 sweep, which covers the stride-2 pair (2, 4) and the stride-4
    # diagonal, was taken while every polynomial still packed its zero digits,
    # and the n = 20 one, whose wide coefficients set the heuristic gcd's first
    # evaluation point, while canonical() still deflated by a scan of the offsets.
    # The two large-r volkenborn ones were taken while each report still read
    # its stages from a dense stage polynomial of degree about r (n + max|c_k|).
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


R9_TSUM_H = ("tsum-h", "--n", "2", "--i", "0", "--h", "3", "--r", "9", "--wlim", "4")


def test_compute_tsum_h_many_coordinates_exits_0(capsys):
    # 4^9 index tuples, but each of the three window products has nine factors.
    code, out, _ = run(capsys, "compute", *R9_TSUM_H)
    assert code == 0 and json.loads(out)["num"]


@pytest.mark.parametrize("argv, max_span, expected", [
    (R9_TSUM_H, 117, 0),  # predicted span 117: numerator exponents -45 .. 72
    (R9_TSUM_H, 116, 3),
    (("tsum", "--n", "3", "--i", "1", "--r", "2", "--wlim", "3"), 16, 0),  # exponents 0 .. 16
    (("tsum", "--n", "3", "--i", "1", "--r", "2", "--wlim", "3"), 15, 3),
    (("tsum", "--n", "1", "--i", "0", "--r", "1", "--wlim", "200000"), None, 3),  # span 399,998
    (("tsum", "--n", "1", "--i", "0", "--r", "1000000000"), None, 3),  # order r
])
def test_compute_tsum_guard_runs_before_work(capsys, monkeypatch, cold_caches, argv, max_span,
                                             expected):
    if max_span is not None:
        monkeypatch.setattr(ratfun_mod, "MAX_SPAN", max_span)
    t0 = time.perf_counter()
    code, _, err = run(capsys, "compute", *argv)
    assert code == expected
    if expected == 3:
        assert "guard" in err
        assert time.perf_counter() - t0 < 1.0


BETA_3_2 = ("beta", "--n", "3", "--r", "2")
BETA_H_NEG = ("beta-h", "--n", "2", "--h", "-4", "--r", "2", "--w", "2")


@pytest.mark.parametrize("argv, max_span, expected", [
    (BETA_3_2, 15, 0),  # (1-q)^3 [2]^2 [3]^2 [4]^2: 3 + 2 * (1 + 2 + 3)
    (BETA_3_2, 14, 3),
    (BETA_H_NEG, 24, 0),  # (1-q^2)^2 [-5] [-4] [-3] [-2] in base q^2: 2 * (2 + 4 + 3 + 2 + 1)
    (BETA_H_NEG, 23, 3),
    (("beta", "--n", "460", "--r", "1"), None, 3),  # span 106,490
    (("beta-h", "--n", "0", "--h", "500", "--r", "500"), None, 3),  # span 124,750
    (("beta", "--n", "0", "--r", "1000000000"), None, 0),  # span 0: the value is 1
])
def test_compute_beta_guard_runs_before_work(capsys, monkeypatch, cold_caches, argv, max_span,
                                             expected):
    if max_span is not None:
        monkeypatch.setattr(ratfun_mod, "MAX_SPAN", max_span)
    if expected == 3:  # no bracket may be built before the refusal
        monkeypatch.setattr(qbernoulli_mod, "bracket_poly", None)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "compute", *argv)
    assert code == expected
    if expected == 3:
        assert out == "" and "guard" in err
        assert max_span is None or f"span {max_span + 1} " in err
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("max_span, expected", [(15, 0), (14, 3)])
def test_table_guard_runs_before_any_row(capsys, monkeypatch, cold_caches, max_span, expected):
    # The largest corner (n, r, w) = (3, 2, 1) has the span 15 of compute beta --n 3 --r 2.
    monkeypatch.setattr(ratfun_mod, "MAX_SPAN", max_span)
    if expected == 3:
        monkeypatch.setattr(qbernoulli_mod, "bracket_poly", None)
    code, out, _ = run(capsys, "table", "--n", "0..3", "--r", "1..2", "--arg", "0,1")
    assert code == expected
    assert len(out.splitlines()) == (17 if expected == 0 else 0)


def test_table_numerator_guard_runs_before_the_header(capsys, monkeypatch):
    # The numerator span grows with |arg|: the row at arg = 40000 spans 120,003.
    monkeypatch.setattr(cli_mod, "beta_higher", None)  # no closed form may be built
    t0 = time.perf_counter()
    code, out, err = run(capsys, "table", "--n", "0..3", "--arg", "0,40000")
    assert (code, out) == (3, "") and "span 120003 " in err
    assert time.perf_counter() - t0 < 1.0


TABLE_BOUNDARIES = [
    ("--n 3 --arg 33332", 0, "0be86d9856bb9463a2645a56f156f94922b91200a143e9254ddd981a7ed6e89b"),
    ("--n 3 --arg 33333", 3, None),  # numerator span 100,002
    ("--n 3 --arg -33331", 0, "8f42be5b518e8162ca93f21a633e7cffe2e5efbfc43ad01b1bdf92538df54efe"),
    ("--n 3 --arg -33332", 3, None),  # 100,002
    ("--n 3 --arg -33333", 3, None),  # 100,005
    ("--n 3 --r 2 --w 3 --arg 33327", 0,
     "c28feb789ec3383ca5abdcf9e068a8d0594e4d38746d366e656cf5e99619deb9"),
    ("--n 3 --r 2 --w 3 --arg 33328", 3, None),
    ("--n 3 --r 2 --w 3 --arg -33321", 0,
     "1af8ca34480b0a984ad29eff352a16e343c7d5477d8bfde359cfe00981195bc1"),
    ("--n 3 --r 2 --w 3 --arg -33322", 3, None),
]


@pytest.mark.parametrize("argv, expected, sha256", TABLE_BOUNDARIES,
                         ids=[argv for argv, _, _ in TABLE_BOUNDARIES])
def test_table_numerator_guard_boundaries(capsys, argv, expected, sha256):
    # Digests taken before the numerator guard, when each refused table still
    # printed its header.
    code, out, _ = run(capsys, "table", *argv.split())
    assert code == expected
    assert hashlib.sha256(out.encode()).hexdigest() == sha256 if sha256 else out == ""


@pytest.mark.parametrize("args", [(-5, 0, 6), (-3, 0, 9)])
def test_table_refuses_exactly_what_the_build_refuses(capsys, monkeypatch, cold_caches, args):
    # Around the largest span of the grid (39 at one arg corner, at most 33 at
    # the other and 30 for the denominator), the table exits 3 with nothing on
    # stdout exactly when building one of its values hits a span guard.
    grid = list(itertools.product(range(4), (1, 2), (1, 2), args))
    for max_span in range(28, 42):
        monkeypatch.setattr(ratfun_mod, "MAX_SPAN", max_span)
        cold_caches()
        try:
            for n, r, w, arg in grid:
                qbernoulli_mod.beta_higher(n, r, w, arg).canonical()
            builds = True
        except ratfun_mod.ResourceLimitError:
            builds = False
        code, out, _ = run(capsys, "table", "--n", "0..3", "--r", "1..2", "--w", "1..2",
                           "--arg=" + ",".join(map(str, args)))
        assert (code, len(out.splitlines())) == ((0, 1 + len(grid)) if builds else (3, 0)), max_span


def test_verify_recurrence(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "recurrence", "--max-n", "12")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 13
    assert all(json.loads(line)["holds"] for line in lines)


def test_verify_thm4_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "thm4", "--max-n", "3", "--max-r", "2",
                       "--max-w", "3", "--max-x", "1")
    assert code == 0
    assert all(json.loads(line)["holds"] for line in out.strip().split("\n"))


def test_verify_guard_exits_3(capsys):
    code, _, err = run(capsys, "verify", "--identity", "thm4", "--max-w", "50")
    assert code == 3
    assert "guard" in err


def test_verify_deterministic_across_threads(capsys):
    args = ["verify", "--identity", "thm3", "--max-n", "2", "--max-r", "2", "--max-w", "2",
            "--max-x", "1"]
    _, out1, _ = run(capsys, *args, "--threads", "1")
    _, out4, _ = run(capsys, *args, "--threads", "4")
    assert out1 == out4


def test_verify_env_threads(capsys, monkeypatch):
    monkeypatch.setenv("QSYM_THREADS", "2")
    code, out, _ = run(capsys, "verify", "--identity", "shift", "--max-n", "4")
    assert code == 0 and len(out.strip().split("\n")) == 5


@pytest.mark.parametrize("env, argv", [
    ("abc", ()),
    (None, ("--sample", "-1")),
])
def test_verify_bad_input_exits_2(capsys, monkeypatch, env, argv):
    if env is not None:
        monkeypatch.setenv("QSYM_THREADS", env)
    code, out, err = run(capsys, "verify", "--identity", "shift", *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_degenerate_h_exits_2_before_any_check(capsys, monkeypatch, threads):
    # thm3 and thm4 come first in the sweep; the degenerate thm5 jobs must
    # refuse the sweep before any of them runs.
    def never(**params):
        raise AssertionError("a checker ran")

    monkeypatch.setattr(identities_mod, "_CHECKERS", dict.fromkeys(identities_mod._CHECKERS, never))
    code, out, err = run(capsys, "verify", "--identity", "thm3", "--identity", "thm4",
                         "--identity", "thm5", "--max-n", "6", "--max-r", "3", "--max-w", "3",
                         "--h=-2", "--threads", threads)
    assert (code, out) == (2, "")
    assert err.startswith("error: h=-2 is degenerate for n=2, r=1")


@pytest.mark.parametrize("env, argv", [
    (None, ("--threads", "-3")),
    (None, ("--threads", "0")),
    ("0", ()),
    ("-2", ()),
    ("4", ("--threads", "0")),  # the flag wins over the variable
])
def test_verify_worker_count_below_one_exits_2_before_work(capsys, monkeypatch, env, argv):
    if env is None:
        monkeypatch.delenv("QSYM_THREADS", raising=False)
    else:
        monkeypatch.setenv("QSYM_THREADS", env)
    monkeypatch.setattr(cli_mod, "sweep", None)  # a sweep started would exit 4
    code, out, err = run(capsys, "verify", "--identity", "shift", *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ") and "worker count" in err


def test_table_rows_and_quoting(capsys):
    code, out, _ = run(capsys, "table", "--n", "0..1", "--r", "1", "--w", "1", "--arg", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,r,w,arg,ratfun"
    assert lines[1] == '0,1,1,0,"1"'
    assert lines[2] == '1,1,1,0,"-1/(q + 1)"'


def test_table_negative_range_start_in_the_equals_form(capsys):
    # Written "--arg -2..2", argparse would read the range as an option.
    code, out, _ = run(capsys, "table", "--arg=-2..2")
    header, *rows = out.splitlines()
    assert code == 0 and header == "n,r,w,arg,ratfun"
    assert [row.split(",")[3] for row in rows] == ["-2", "-1", "0", "1", "2"]


@pytest.mark.parametrize("argv", [("--w", "0"), ("--r", "0"), ("--n=-1",)])
def test_table_bad_parameter_exits_2_before_the_header(capsys, argv):
    code, out, err = run(capsys, "table", *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_table_deterministic_reruns(capsys):
    args = ["table", "--n", "0..6", "--r", "2", "--w", "1", "--arg", "0"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert len(out1.strip().split("\n")) == 8  # header + 7 rows


def test_volkenborn_single(capsys):
    code, out, _ = run(capsys, "volkenborn", "--family", "single", "--n", "2", "--p", "5",
                       "--N", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["monotone"] is True
    assert [n for n, _ in obj["points"]] == [1, 2, 3, 4]


def test_volkenborn_deep_stage_is_fast(capsys):
    # Stage 6 at p = 5 took about 9 s when each stage walked s = 0..p^N - 1.
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "volkenborn", "--family", "single", "--n", "2", "--p", "5",
                       "--N", "6")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "3b6f9247606f98aeaa9fda10ab604e12c1b75e189e2530838c25386c7738afb1")


@pytest.mark.parametrize("r", ["100000", "1000000"])
def test_volkenborn_budget_guard_exits_3(capsys, r):
    # The grid 5^r has more than the 4,300 digits Python formats, so the guard
    # compares exponents and writes the grid as a power.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "volkenborn", "--family", "multi", "--n", "0", "--r", r,
                         "--p", "5", "--N", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert "guard" in err and f"5^({r})" in err


@pytest.mark.parametrize("n, N", [("40", "7"), ("120", "8")])
def test_volkenborn_stage_size_guard_exits_3(capsys, n, N):
    # Inside the default budget, these took 23 s and over 40 s before the guard.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "volkenborn", "--family", "single", "--n", n, "--p", "5",
                         "--N", N)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert "MAX_STAGE_BITS" in err


def test_volkenborn_large_argument_exits_3(capsys):
    # The powers q0^(m x) alone would take gigabytes: the stage-size guard counts them.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "volkenborn", "--family", "single", "--n", "2", "--x",
                         "1000000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert "MAX_STAGE_BITS" in err


def test_volkenborn_isolated_root_report_exits_1(capsys):
    # S_1 equals beta exactly but S_2 and S_3 do not: the valuations fall from
    # inf to 2, so the report is not monotone and the command exits 1.
    code, out, err = run(capsys, "volkenborn", "--family", "single", "--n", "2", "--p", "3",
                         "--q0", "-2", "--N", "3")
    assert code == 1 and err == ""
    obj = json.loads(out)
    assert obj["points"] == [[1, "inf"], [2, 2], [3, 3]] and obj["monotone"] is False


def test_volkenborn_nonprime_exits_2(capsys):
    code, _, err = run(capsys, "volkenborn", "--p", "6", "--n", "1")
    assert code == 2 and "not prime" in err


def test_volkenborn_budget_below_one_exits_2(capsys):
    # A budget below 1 is a bad parameter, not a guard refusing a stage.
    code, out, err = run(capsys, "volkenborn", "--family", "single", "--n", "2", "--p", "5",
                         "--budget", "-5")
    assert code == 2 and out == ""
    assert err == "error: budget must be >= 1, got -5\n"


def test_volkenborn_prime_over_budget_exits_3_before_the_primality_test(capsys):
    # 2^61 - 1 is prime.  p > budget means every stage's p^(r N) exceeds the
    # budget, so the guard refuses it before Miller-Rabin runs.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "volkenborn", "--n", "1", "--p", str(2**61 - 1))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == "" and "budget" in err


@pytest.mark.parametrize("p, marker", [(2**61 - 1, "summation grid"),
                                       (volkenborn_mod.PSI_13, "primality bound")])
def test_volkenborn_large_prime_under_a_raised_budget_exits_3_fast(capsys, p, marker):
    # Under this budget the primality test runs: p = 2^61 - 1 is decided, then
    # its stages refused; p from PSI_13 on is refused by the test itself.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "volkenborn", "--n", "1", "--p", str(p),
                         "--budget", str(10**25))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == "" and marker in err


def test_volkenborn_inexact_window_is_a_bug_exit_4(capsys, monkeypatch):
    # No window takes a quotient, so the fault is forced in the kernel's table:
    # window denominators b^k - a^k = 0 make their lcm, and so the scale, 0, whose
    # valuation raises ZeroDivisionError, an ArithmeticError, which can only be a
    # qsym bug.
    table = volkenborn_mod._stage_table
    monkeypatch.setattr(volkenborn_mod, "_stage_table",
                        lambda *args: table(*args)._replace(scale=0))
    code, out, err = run(capsys, "volkenborn", "--n", "1", "--p", "5", "--N", "2")
    assert code == 4 and out == ""
    assert "Traceback" in err and "ZeroDivisionError" in err


@pytest.mark.parametrize("q0", ["1/0", "0/0", "abc"])
def test_volkenborn_q0_without_a_value_exits_2(capsys, q0):
    # argparse exits 2 on SystemExit; a ZeroDivisionError would escape main.
    with pytest.raises(SystemExit) as exc:
        main(["volkenborn", "--n", "1", "--q0", q0])
    assert exc.value.code == 2
    assert f"not a fraction a/b with b != 0: '{q0}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["table", "--n", "3..1"], "argument --n: empty range '3..1'"),
    (["table", "--arg", "0..x"], "argument --arg: not a range lo..hi of integers: '0..x'"),
    (["table", "--w", "1,,2"], "argument --w: not a list a,b,... of integers: '1,,2'"),
    (["verify", "--h", "1,x"], "argument --h: not a list a,b,... of integers: '1,x'"),
    (["verify", "--h-offsets", "0.5"], "argument --h-offsets: not a list a,b,... of integers"),
])
def test_bad_list_or_range_flag_exits_2_with_its_message(capsys, argv, message):
    # argparse prints an ArgumentTypeError's message; any other error from a
    # flag parser would print "invalid _parse_range value" instead.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert message in err and "invalid" not in err


def test_volkenborn_multi_n0_all_inf(capsys):
    code, out, _ = run(capsys, "volkenborn", "--family", "multi", "--n", "0", "--r", "2",
                       "--p", "3", "--N", "3")
    assert code == 0
    obj = json.loads(out)
    assert all(v == "inf" for _, v in obj["points"])


def test_volkenborn_bad_q0_exits_2(capsys):
    code, _, _ = run(capsys, "volkenborn", "--n", "1", "--p", "5", "--q0", "3")
    assert code == 2
