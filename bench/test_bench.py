"""Tests of the benchmark itself: work counters repeat, tracing leaves the
outputs unchanged, the seed drives the inputs, and the gate catches a
perturbed result.

    python -m pytest bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on the path first)
import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MODELS = workloads.build_models()


def _subset(workload, prefixes, seed=7):
    """The operations of pass 0 whose labels start with one of ``prefixes``."""
    ops = workloads.pass_ops(workload, MODELS, seed, 0)
    picked = [op for op in ops if op.label.startswith(prefixes)]
    assert picked
    return picked


@pytest.fixture(scope="module")
def session_runs():
    """One untraced and two traced runs of a cheap slice of user_session
    that touches every layer."""
    ops = _subset("user_session", ("lowkgreen expand parabolic",
                                   "lowkgreen compare exponential"))
    untraced, _, _ = run.run_pass(ops)
    traced = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr:
            tr.begin_pass()
            outputs, _, _ = run.run_pass(ops, tr)
            traced.append((outputs, tr.end_pass()))
    return ops, untraced, traced


def test_same_seed_gives_identical_work_counters(session_runs):
    _, _, [(_, (first, _)), (_, (second, _))] = session_runs
    for key in ("quad.panels", "brackets.chain_levels", "oracle.rhs_evals",
                "potential.calls"):
        assert first[key] > 0
        assert first[key] == second[key], key


def test_traced_and_untraced_outputs_are_identical(session_runs):
    ops, untraced, traced = session_runs
    for outputs, _ in traced:
        assert run.same_outputs(ops, untraced, outputs)
    assert gate.check_ops(ops, untraced) == (0, [])


def test_tracer_restores_the_library():
    import lowkgreen
    from lowkgreen import brackets, potential
    before = (lowkgreen.green_series, brackets.build_chebfun,
              potential.PotentialModel.VS)
    with tracer.Tracer():
        assert lowkgreen.green_series is not before[0]
    assert (lowkgreen.green_series, brackets.build_chebfun,
            potential.PotentialModel.VS) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_and_pass_drive_the_inputs(workload):
    def labels(seed, index):
        return [op.label for op in workloads.pass_ops(workload, MODELS, seed, index)]
    assert labels(3, 0) == labels(3, 0)
    assert labels(3, 0) != labels(4, 0)
    assert labels(3, 0) != labels(3, 1)


def test_gate_flags_a_perturbed_coefficient():
    model = MODELS["parabolic"]
    op = workloads.expand_op(MODELS, "parabolic", 1.2, 1.0, 2, (-2, 0))
    res = op.call()
    assert op.check(res) == []
    res.g.coeffs[0] *= 1.0 + 1e-4
    assert op.check(res)
    res = op.call()
    res.s_x.coeffs[1 - res.s_x.min_order] *= 1.0 + 1e-4
    assert gate.check_expansion(model, res, ())


def test_gate_flags_a_perturbed_sample():
    for model in ("barrier", "logstep"):
        op = _subset("oracle_sweep", (f"green_exact_report {model}",))[0]
        sample, diag = op.call()
        assert op.check((sample, diag)) == []
        moved = dataclasses.replace(sample, value=sample.value * (1.0 + 1e-4))
        assert op.check((moved, diag))
        assert op.check((sample, dict(diag, wronskian_variation=1e-3)))


def test_gate_counts_raising_operations():
    op = workloads.Op("expand", "raises", None, lambda out: [], str)
    assert gate.check_ops([op], [RuntimeError("boom")])[0] == 1


def test_gate_flags_a_perturbed_command_output():
    [op] = _subset("expand_deep", ("lowkgreen brackets",))
    rc, text = op.call()
    assert op.check((rc, text)) == []
    payload = json.loads(text)
    payload["value"] *= 1.0 + 1e-6
    assert op.check((rc, json.dumps(payload)))
    assert op.check((3, text))


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "user_session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
