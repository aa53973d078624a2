"""CLI behaviour: exit codes, formats, config file, emission stability."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotwist.cli import CONFIG_KEYS, _model_params, main
from cotwist.models import MODELS

PKG_ENV = dict(os.environ, PYTHONPATH="src")


def run_cli(args, env=None, module="cotwist.cli"):
    proc = subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env or PKG_ENV, cwd=os.path.dirname(os.path.dirname(__file__)) or ".")
    return proc


def test_verify_passes_classical(capsys):
    code = main(["verify", "--model", "classical_torus", "--suite", "metric",
                 "--box", "2", "--samples", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "metric.base.snake" in out


def test_verify_json_deterministic(capsys):
    args = ["verify", "--model", "nc_torus", "--p", "1", "--q", "3",
            "--suite", "main", "--box", "2", "--samples", "10",
            "--seed", "42", "--format", "json"]
    code = main(args)
    first = capsys.readouterr().out
    assert code == 0
    code = main(args)
    second = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["summary"]["fail"] == 0
    # duration fields move; everything else is stable
    a = json.loads(first)
    b = json.loads(second)
    for doc in (a, b):
        for c in doc["checks"]:
            c["duration_ms"] = 0
    assert a == b


def test_verify_exhaustive_flag(capsys):
    code = main(["verify", "--model", "finite_bicharacter", "--n", "3",
                 "--suite", "cocycle", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["exhaustive"] is True
    assert all(c["sample_spec"].startswith("exhaustive")
               for c in doc["checks"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    # shipped models all pass, so route a corrupted bundle through the CLI
    from cotwist import cli
    from cotwist.faults import FAULTS
    fault = next(f for f in FAULTS if f.name == "d-corrupted")
    monkeypatch.setattr(cli, "build_model", lambda name, **params: fault.build())
    code = main(["verify", "--model", "nc_torus", "--suite", "calculus",
                 "--samples", "8"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "witness" in out


def test_config_file_and_env_format(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=nc_torus\np=1\nq=3\nsuite=main\nbox=2\nsamples=8\n")
    monkeypatch.setenv("COTWIST_FORMAT", "json")
    code = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["meta"]["model"] == "nc_torus(1,3)"


def test_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("modelnc_torus\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert main(["verify", "--model", "nc_torus", "--q", "0"]) == 2


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("model=fun_group\nsede=3\nsuite=hopf\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {cfg}:2: unknown key 'sede'"]


def test_undecodable_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bin.cfg"
    cfg.write_bytes(b"model=fun_group\n\xff\xfe=1\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read config {cfg}: ")


def test_twist_emit_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "tw.json"
    out0 = tmp_path / "flat.json"
    assert main(["twist", "--model", "nc_torus", "--p", "1", "--q", "3",
                 "--emit", str(out1)]) == 0
    assert main(["twist", "--model", "nc_torus", "--p", "1", "--q", "3",
                 "--emit", str(out0), "--untwisted"]) == 0
    doc = json.loads(out1.read_text())
    assert doc["schema_version"] == 1
    assert doc["product"]["u(0,1)|u(1,0)"] != \
        json.loads(out0.read_text())["product"]["u(0,1)|u(1,0)"]
    # byte stability
    out2 = tmp_path / "tw2.json"
    assert main(["twist", "--model", "nc_torus", "--p", "1", "--q", "3",
                 "--emit", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_twist_trivial_matches_untwisted(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["twist", "--model", "nc_torus", "--p", "0", "--q", "3",
                 "--emit", str(a)]) == 0
    assert main(["twist", "--model", "nc_torus", "--p", "0", "--q", "3",
                 "--emit", str(b), "--untwisted"]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert da == db


def test_console_entry_point_runs():
    proc = run_cli(["verify", "--model", "finite_bicharacter", "--n", "2",
                    "--suite", "hopf"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args,code", [
    (["verify", "--model", "finite_bicharacter", "--n", "2", "--suite", "cocycle"], 0),
    (["verify", "--model", "nc_torus", "--q", "0"], 2),
])
def test_package_runs_as_a_module(args, code):
    proc = run_cli(args, module="cotwist")
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == "error: cannot build model nc_torus: q must be positive\n"
    else:
        assert proc.stderr == "" and "cocycle.equation" in proc.stdout


@pytest.mark.parametrize("command", [["verify", "--suite", "hopf", "--box", "2", "--samples", "8"],
                                     ["twist"]])
def test_large_prime_denominator_runs(command):
    # Q(zeta_4036): exponents up to 4035 reduce mod Phi_4036, of degree 2016
    proc = run_cli(command[:1] + ["--model", "nc_torus", "--p", "1", "--q", "1009"] + command[1:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and "FAIL" not in proc.stdout


def test_twist_emits_twisted_tables_for_finite_models(tmp_path):
    tw = tmp_path / "tw.json"
    un = tmp_path / "un.json"
    assert main(["twist", "--model", "finite_bicharacter", "--n", "3",
                 "--pairing", "upper", "--emit", str(tw)]) == 0
    assert main(["twist", "--model", "finite_bicharacter", "--n", "3",
                 "--pairing", "upper", "--untwisted", "--emit", str(un)]) == 0
    dtw = json.loads(tw.read_text())
    dun = json.loads(un.read_text())
    assert dtw["star"] != dun["star"]   # the non-skew pairing deforms *


@pytest.mark.parametrize("args", [
    ["--model", "finite_bicharacter", "--n", "0"],
    ["--model", "nc_torus", "--box", "-1"],
    ["--model", "finite_bicharacter", "--pairing", "bogus"],
    ["--model", "nc_torus", "--samples", "-5"],
    # rejected before a label is listed: listing them ran out of memory
    ["--model", "nc_torus", "--box", "99999999999"],
    ["--model", "classical_torus", "--box", "16"],
    # rejected before a sample is drawn: listing them ran out of memory
    ["--model", "nc_torus", "--samples", "100000000"],
], ids=["n-0", "box-negative", "pairing-bogus", "samples-negative", "box-oversized",
        "box-over-the-label-bound", "samples-over-the-bound"])
def test_bad_model_parameters_exit_2_with_one_line_error(args, capsys):
    for command in ("verify", "twist"):
        assert main([command, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("args", [
    ["--model", "finite_bicharacter", "--n", "100000", "--suite", "hopf"],
], ids=["n-over-the-bound"])
def test_input_over_a_memory_bound_exits_2_in_a_limited_child(args):
    # Under a 1 GB address-space limit, listing 10^10 labels ends in a
    # MemoryError in the child instead of waking the host's out-of-memory killer.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "cotwist", "verify", *args], capture_output=True, text=True,
        env=PKG_ENV, cwd=os.path.dirname(os.path.dirname(__file__)) or ".",
        preexec_fn=limit, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_params_are_the_builders_parameters(name):
    import inspect
    builder = MODELS[name]
    taken = set(inspect.signature(builder).parameters)
    # every flag, every local name of the builder, and one name nothing takes
    merged = dict.fromkeys({*CONFIG_KEYS, *builder.__code__.co_varnames, "unknown"}, 1)
    merged["model"] = name
    assert _model_params(merged) == (name, dict.fromkeys(taken, 1))


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}", str(v)]))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["verify", "twist"]))
    argv = [command, "--model", draw(st.sampled_from(
        ["classical_torus", "nc_torus", "finite_bicharacter", "fun_group"]))]
    for name, values in (
            ("p", st.integers(-3, 3)), ("q", st.integers(-2, 6)), ("n", st.integers(-1, 3)),
            ("pairing", st.sampled_from(["skew", "upper", "trivial", "bogus"])),
            ("group", st.sampled_from(["s3", "z17"])), ("box", st.integers(-1, 2)),
            ("samples", st.integers(-1, 3)), ("seed", st.integers(0, 5))):
        argv += draw(_flag(name, values))
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(["hopf", "cocycle"]))]
    return argv


@settings(max_examples=30, deadline=None)
@given(cli_argv())
def test_fuzzed_flags_exit_0_or_2_with_one_line_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2, (argv, out.getvalue())
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
