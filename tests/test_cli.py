import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lowkgreen.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def readme_commands():
    """Every ``lowkgreen ...`` line of the README, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("lowkgreen ")]


class TestReadme:
    def test_usage_block_is_found(self):
        names = {argv[0] for argv in readme_commands()}
        assert names == {"expand", "compare", "brackets", "scaling", "oracle"}

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_command_runs(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("LOWK_GREEN_TOL", raising=False)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out


def fresh_interpreter(code, *args):
    """stdout of ``code`` run by a new Python on this checkout's package."""
    import lowkgreen
    env = {k: v for k, v in os.environ.items() if k != "LOWK_GREEN_TOL"}
    src = str(Path(lowkgreen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


class TestWithoutScipy:
    """scipy is a test-time reference only: the package never imports it."""

    def test_import_loads_no_scipy(self):
        code = ("import sys, lowkgreen, lowkgreen.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert fresh_interpreter(code).strip() == "[]"

    def test_readme_commands_without_scipy(self, capsys, monkeypatch):
        # every README line in an interpreter where importing scipy fails,
        # against the same line run here
        code = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from lowkgreen.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""
        commands = readme_commands()
        runs = json.loads(fresh_interpreter(code, json.dumps(commands)))
        monkeypatch.delenv("LOWK_GREEN_TOL", raising=False)
        assert len(runs) == len(commands)
        for argv, (rc, out, err) in zip(commands, runs):
            assert rc == 0, argv
            assert [out, err] == list(run(capsys, *argv)[1:]), argv


class TestExpand:
    def test_parabolic_json(self, capsys):
        code, out, _ = run(capsys, "expand", "parabolic",
                           "--x", "1.2", "--y", "1", "--order", "2")
        assert code == 0
        data = json.loads(out)
        assert data["case"] == "iv"
        assert set(data["g"]) == {"-2", "-1", "0", "1", "2"}
        assert abs(data["g"]["-2"] + np.exp(-0.5 * (1.44 + 1.0)) / math.sqrt(math.pi)) < 1e-10
        assert data["closed_form_residuals"]["0"] < 1e-8

    def test_validity_error_exit_2(self, capsys):
        code, _, err = run(capsys, "expand", "logstep", "--alpha", "1.5",
                           "--x", "1.5", "--y", "0.8", "--order", "2")
        assert code == 2
        assert "validity" in err

    def test_overflowing_tail_cut_exit_3(self, capsys):
        code, out, err = run(capsys, "expand", "logstep", "--alpha", "7.2",
                             "--x", "1.5", "--y", "0.8", "--order", "6")
        assert code == 3 and out == ""
        assert "simplex factor overflows" in err

    def test_barrier_generic_default_points(self, capsys):
        code, out, _ = run(capsys, "expand", "barrier", "--a", "1",
                           "--generic", "--order", "0")
        assert code == 0
        data = json.loads(out)
        want = -np.cosh(0.5) ** 2 / np.sinh(2.0)
        assert abs(data["g"]["0"] - want) < 1e-8

    def test_show_terms(self, capsys):
        code, out, _ = run(capsys, "expand", "parabolic", "--x", "1.2",
                           "--y", "1", "--order", "0", "--show-terms")
        assert code == 0
        data = json.loads(out)
        kinds = {t["family"] for t in data["terms"]}
        assert kinds == {"b"}
        signs = {tt["signs"] for t in data["terms"] for tt in t["terms"]}
        assert "-" in signs

    @pytest.mark.parametrize("name,x,y,want", [
        ("free", "1.2", "0.3", {("a", "right"), ("a", "left")}),
        ("exponential", "0.5", "0", {("a", "right"), ("b", "left")}),
        ("parabolic", "1.2", "1", {("b", "right"), ("b", "left")}),
        ("sqrtwell", "1", "-0.5", {("b", "right"), ("btilde", "left")}),
    ], ids=["free", "exponential", "parabolic", "sqrtwell"])
    def test_show_terms_mixed_families(self, capsys, name, x, y, want):
        code, out, _ = run(capsys, "expand", name, "--x", x, "--y", y,
                           "--order", "1", "--show-terms")
        assert code == 0
        data = json.loads(out)
        assert {(t["family"], t["side"]) for t in data["terms"]} == want
        for a0 in [t for t in data["terms"]
                   if t["family"] == "a" and t["order"] == 0]:
            assert a0["terms"][0]["coeff"] == "-1/2"
            assert a0["terms"][0]["limit_exponent"] == 1

    def test_generic_coincident_points(self, capsys):
        code, out, _ = run(capsys, "expand", "barrier", "--a", "1", "--generic",
                           "--x", "0.5", "--y", "0.5", "--order", "1")
        assert code == 0
        assert json.loads(out)["q"]["1"] == 0.0


class TestCompare:
    def test_csv_shape_and_determinism(self, capsys):
        args = ("compare", "parabolic", "--x", "1.2", "--y", "1",
                "--order", "0", "--k-start", "0.2", "--k-stop", "1.0",
                "--k-count", "3")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0].startswith("# model=parabolic case=iv")
        header = lines[1].split(",")
        assert header[0] == "k" and "re_exact" in header
        assert len(lines) == 2 + 3

    def test_truncation_residual_shrinks_with_k(self, capsys, tmp_path):
        # the flagship comparison: residuals of the order-2 truncation fall
        # rapidly toward k = 0
        target = tmp_path / "fig.csv"
        code, _, _ = run(capsys, "compare", "parabolic", "--x", "1.2",
                         "--y", "1", "--order", "2", "--k-start", "0.1",
                         "--k-stop", "0.8", "--k-count", "4",
                         "--k-spacing", "log", "--output", str(target))
        assert code == 0
        rows = [line.split(",") for line in
                target.read_text().strip().split("\n")[2:]]
        resid = [float(r[-1]) for r in rows]
        assert resid[0] < 1e-4
        assert all(a < b for a, b in zip(resid, resid[1:]))

    def test_sums_at_the_oracles_k(self, capsys):
        # the README line: the first row's residual is the order-2
        # truncation error, about 2.9e-7, and parabolic's V_S is confining,
        # so G is real at every real k
        code, out, _ = run(capsys, "compare", "parabolic", "--x", "1.2",
                           "--y", "1", "--order", "2", "--k-start", "0.05",
                           "--k-stop", "1.2", "--k-count", "40")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        assert float(rows[0][0]) == 0.05
        assert float(rows[0][-1]) < 5e-7
        assert len(rows) == 40
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_log_form_columns(self, capsys):
        code, out, _ = run(capsys, "compare", "exponential", "--x", "0.5",
                           "--y", "0", "--order", "1", "--k-start", "0.3",
                           "--k-stop", "0.5", "--k-count", "2", "--log-form")
        assert code == 0
        header = out.strip().split("\n")[1]
        assert "re_logform" in header and "im_logform" in header


class TestBrackets:
    def test_gaussian(self, capsys):
        code, out, _ = run(capsys, "brackets", "parabolic", "--plain", "-",
                           "--lower", "-inf", "--upper", "inf")
        assert code == 0
        assert abs(json.loads(out)["value"] - math.sqrt(math.pi)) < 1e-10

    def test_unit(self, capsys):
        code, out, _ = run(capsys, "brackets", "free", "--plain", "+",
                           "--lower", "0", "--upper", "1")
        assert code == 0
        assert abs(json.loads(out)["value"] - 1.0) < 1e-12

    def test_finite_angle(self, capsys):
        code, out, _ = run(capsys, "brackets", "logcosh", "--plain", "--",
                           "--lower", "-inf", "--upper", "0")
        assert code == 0
        assert json.loads(out)["value"] > 0

    def test_bad_signs_exit_2(self, capsys):
        code, _, err = run(capsys, "brackets", "free", "--plain", "+x",
                           "--lower", "0", "--upper", "1")
        assert code == 2

    def test_divergent_exit_3(self, capsys):
        code, _, err = run(capsys, "brackets", "free", "--plain", "-",
                           "--lower", "-inf", "--upper", "0")
        assert code == 3
        assert "tail" in err or "failure" in err

    def test_tolerance_below_rounding_exit_3(self, capsys):
        code, _, err = run(capsys, "brackets", "parabolic", "--plain", "-",
                           "--lower", "-inf", "--upper", "inf",
                           "--rel-tol", "1e-20")
        assert code == 3
        assert "panels" in err


class TestNonFinitePositions:
    @pytest.mark.parametrize("argv", [
        ["oracle", "barrier", "--a", "1", "--x", "inf", "--y", "0.5",
         "--k-start", "0.1", "--k-stop", "0.2", "--k-count", "2"],
        ["oracle", "barrier", "--a", "1", "--x", "nan", "--y", "0.5",
         "--k-start", "0.1", "--k-stop", "0.2", "--k-count", "1"],
        ["expand", "barrier", "--a", "1", "--generic", "--x", "nan",
         "--y", "0", "--order", "1"],
        ["oracle", "sqrtwell", "--x", "nan"],
        ["expand", "parabolic", "--x", "nan"],
        ["compare", "parabolic", "--y", "-inf", "--k-count", "2"],
    ], ids=["oracle-inf-grid", "oracle-nan-single", "expand-generic-nan",
            "oracle-nan-default-grid", "expand-nan", "compare-minus-inf"])
    def test_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "positions must be finite" in err


class TestNonFiniteWavenumbers:
    @pytest.mark.parametrize("argv,typed", [
        (["oracle", "free", "--k-start", "nan", "--k-count", "2"],
         "--k-start nan"),
        (["compare", "free", "--k-start", "nan", "--k-count", "1"],
         "--k-start nan"),
        (["oracle", "parabolic", "--k-start", "0.1", "--k-stop", "inf",
          "--k-count", "3"], "--k-stop inf"),
        (["scaling", "free", "--k-start=-inf", "--k-count", "3"],
         "--k-start -inf"),
    ], ids=["oracle-nan-grid", "compare-nan-single", "oracle-inf-stop",
            "scaling-minus-inf-start"])
    def test_exit_2(self, capsys, argv, typed):
        # refused before numpy builds the grid: no warning, and the error
        # names the value that was typed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "wavenumbers must be finite" in err
        assert typed in err


class TestSolverOptions:
    @pytest.mark.parametrize("option,value", [
        ("--ode-tol", "nan"), ("--ode-tol", "-1e-10"), ("--ode-tol", "inf"),
    ])
    def test_exit_2(self, capsys, option, value):
        code, out, err = run(capsys, "oracle", "free", "--k-start", "0.3",
                             "--k-count", "1", f"{option}={value}")
        assert code == 2
        assert out == ""
        assert "must be finite and" in err

    @pytest.mark.parametrize("option,value,message", [
        ("--ode-tol", "-1e-10", "ode_rel_tol must be finite and positive"),
        ("--k-start", "-inf", "wavenumbers must be finite (--k-start -inf)"),
    ])
    def test_negative_value_as_its_own_token(self, capsys, option, value,
                                             message):
        # as a shell passes it: the range check answers, not argparse
        code, out, err = run(capsys, "oracle", "free", "--k-start", "0.3",
                             "--k-count", "1", option, value)
        assert code == 2
        assert out == ""
        assert message in err


class TestScaling:
    def test_logstep(self, capsys):
        code, out, _ = run(capsys, "scaling", "logstep", "--alpha", "1.5",
                           "--order", "0", "--x", "1.5", "--y", "0.8",
                           "--k-start", "0.005", "--k-stop", "0.1",
                           "--k-count", "5")
        assert code == 0
        data = json.loads(out)
        assert abs(data["slope"] - 0.5) < 0.1
        assert data["consistent"] is True


class TestOracle:
    def test_samples(self, capsys):
        code, out, _ = run(capsys, "oracle", "free", "--x", "1.0", "--y", "0.0",
                           "--k-start", "0.5", "--k-stop", "0.5", "--k-count", "1")
        assert code == 0
        row = out.strip().split("\n")[-1].split(",")
        want = np.exp(0.5j * 1.0) / (2j * 0.5)
        assert abs(float(row[1]) - want.real) < 1e-7
        assert abs(float(row[2]) - want.imag) < 1e-7


    def test_threshold_k_exit_2(self, capsys):
        code, out, err = run(capsys, "oracle", "logcosh", "--k-start", "1",
                             "--k-count", "1")
        assert (code, out) == (2, "")
        assert "real k = 1 is at the threshold" in err

    def test_bound_state_exit_3(self, capsys):
        # k^2 = 4 is a bound state of parabolic: on the real axis the two
        # sides' solutions are proportional, and the sample is refused
        code, out, err = run(capsys, "oracle", "parabolic", "--x", "1.2",
                             "--y", "1", "--k-start", "2", "--k-count", "1")
        assert (code, out) == (3, "")
        assert "nearly proportional" in err


class TestFormats:
    def test_expand_csv(self, capsys):
        code, out, _ = run(capsys, "expand", "free", "--x", "1.0", "--y", "0.0",
                           "--order", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# model=free")
        assert lines[1] == "key,value"
        kv = dict(line.split(",", 1) for line in lines[2:])
        assert abs(float(kv["g.-1"]) - 0.5) < 1e-12
        assert abs(float(kv["g.0"]) - 0.5) < 1e-12

    def test_oracle_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "free", "--x", "1.0", "--y", "0.0",
                           "--k-start", "0.5", "--k-stop", "0.5",
                           "--k-count", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["columns"] == ["k", "re_exact", "im_exact"]
        assert len(data["rows"]) == 1


class TestConfigAndEnv:
    def test_env_overrides_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("LOWK_GREEN_TOL", "1e-6")
        code, out, _ = run(capsys, "brackets", "free", "--plain", "+",
                           "--lower", "0", "--upper", "1")
        assert code == 0
        assert json.loads(out)["rel_tol"] == 1e-6

    def test_env_tolerance_must_be_a_number(self, capsys, monkeypatch):
        monkeypatch.setenv("LOWK_GREEN_TOL", "abc")
        code, out, err = run(capsys, "brackets", "free", "--plain", "+",
                             "--lower", "0", "--upper", "1")
        assert code == 2
        assert out == "" and "LOWK_GREEN_TOL" in err

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"x": 1.2, "y": 1.0, "order": 2}))
        code, out, _ = run(capsys, "expand", "parabolic",
                           "--config", str(cfgfile))
        assert code == 0
        data = json.loads(out)
        assert data["x"] == 1.2 and data["order"] == 2

    @pytest.mark.parametrize("data", [{"ode_tl": 1e-3},
                                      {"x": 1.2, "epsilon_imag": 1e-8}])
    def test_config_file_refuses_unknown_keys(self, capsys, tmp_path, data):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(data))
        code, out, err = run(capsys, "oracle", "free", "--config", str(cfgfile),
                             "--k-start", "0.5", "--k-count", "1")
        assert code == 2 and out == ""
        assert "unknown config key" in err
        # a key written with dashes names the same option
        cfgfile.write_text(json.dumps({"ode-tol": 1e-9, "k_count": 1}))
        code, _, _ = run(capsys, "oracle", "free", "--config", str(cfgfile),
                         "--k-start", "0.5")
        assert code == 0

    def test_flags_override_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"order": 2}))
        code, out, _ = run(capsys, "expand", "parabolic", "--x", "1.2",
                           "--y", "1.0", "--order", "0",
                           "--config", str(cfgfile))
        assert code == 0
        assert json.loads(out)["order"] == 0

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "brackets", "free", "--plain", "+",
                           "--lower", "0", "--upper", "1",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert abs(json.loads(target.read_text())["value"] - 1.0) < 1e-12

    def test_jobs_flag(self, capsys):
        # --jobs is gone: argparse rejects it as a usage error
        argv = ("oracle", "free", "--x", "1.0", "--y", "0.0", "--k-start",
                "0.3", "--k-stop", "0.9", "--k-count", "4")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(out.strip().split("\n")) == 2 + 4
        assert run(capsys, *argv) == (0, out, "")
