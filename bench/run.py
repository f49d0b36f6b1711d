"""lowkgreen benchmark: closed-loop workloads through the public API.

    python3 bench/run.py --workload expand_deep --seed 1 --seconds 20 --trace 0

One caller sends each request after the previous one completes (no threads,
no ``--jobs``).  A run repeats passes of the workload's request mix, each
pass with fresh inputs drawn from the seed, until ``--seconds`` have
passed; it then checks every output (see ``gate.py``) outside the timed
phase.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``README.md``).
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` next to this directory; the run
fails when it is not there.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # Pin the BLAS/OpenMP pools before numpy loads; set-up children inherit it.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if __name__ == "__main__" and not (SRC / "lowkgreen" / "__init__.py").is_file():
    sys.exit(f"error: no lowkgreen sources under {SRC}")
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import lowkgreen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters started to time set-up; the median is reported
SETUP_REPEATS = 5
EXIT_WRONG_LIBRARY = 2


def git_sha():
    """HEAD of the checkout read from ``.git`` directly, or ``None``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args):
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_pools": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure_setup(workload):
    """Median seconds from a fresh interpreter to ``lowkgreen`` imported and
    the workload's models built."""
    code = ("import sys; sys.path[:0] = [%r, %r]; import workloads; "
            "workloads.build_models(); print('ready', flush=True)"
            % (str(SRC), str(BENCH)))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    return statistics.median(times), len(times)


def run_pass(ops, tr=None, first_request=0):
    """Run the operations in order; an operation that raises yields its
    exception as output.  Returns (outputs, seconds per op, pass seconds)."""
    outputs, seconds = [], []
    start = time.perf_counter()
    for j, op in enumerate(ops):
        if tr is not None:
            tr.request = first_request + j
        t = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # counted as a failed operation by the gate
            traceback.print_exc(file=sys.stderr)
            out = exc
        seconds.append(time.perf_counter() - t)
        outputs.append(out)
    return outputs, seconds, time.perf_counter() - start


def timed_passes(workload, models, seed, seconds, tr=None):
    """Passes 0, 1, ... until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    requests = 0
    while True:
        ops = workloads.pass_ops(workload, models, seed, len(passes))
        if tr is not None:
            tr.begin_pass()
        outputs, op_seconds, wall = run_pass(ops, tr, requests)
        stats = tr.end_pass() if tr is not None else None
        passes.append({"ops": ops, "outputs": outputs, "op_seconds": op_seconds,
                       "wall": wall, "stats": stats})
        requests += len(ops)
        if time.perf_counter() - start >= seconds:
            return passes


def same_outputs(ops, a, b):
    """Whether two runs of the same operations rendered identical bytes."""
    def render(op, out):
        return repr(out) if isinstance(out, Exception) else op.render(out)
    return all(render(op, x) == render(op, y) for op, x, y in zip(ops, a, b))


def gate_passes(passes):
    attempted = failed = 0
    failures = []
    for p in passes:
        n_failed, msgs = gate.check_ops(p["ops"], p["outputs"])
        attempted += len(p["ops"])
        failed += n_failed
        failures += msgs
    return attempted, failed, failures


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(args, models):
    setup_s, setup_n = measure_setup(args.workload)
    passes = timed_passes(args.workload, models, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, failures = gate_passes(passes)
    if args.workload == "user_session":
        # identical invocations must print identical bytes
        first = passes[0]
        again, _, _ = run_pass(first["ops"])
        attempted += 1
        if not same_outputs(first["ops"], first["outputs"], again):
            failed += 1
            failures.append("pass 0 printed different bytes when repeated")

    kind = workloads.REQUEST_KIND[args.workload]
    req = [s for p in passes for op, s in zip(p["ops"], p["op_seconds"])
           if op.kind == kind]
    walls = [p["wall"] for p in passes]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "request_p50_s": metric(statistics.median(req), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    counts = {"wall_s": f"{len(walls)} passes",
              "request_p50_s": f"{len(req)} {kind} requests; {kind}_p50_s",
              "setup_s": f"{setup_n} fresh interpreters",
              "peak_rss_mb": "1 process"}
    return metrics, counts, attempted, failed, failures


def traced_run(args, models):
    # Untraced pass 0 first: its time is the base of the overhead ratio, and
    # the traced pass 0 (same inputs) must print the same bytes.
    ref_ops = workloads.pass_ops(args.workload, models, args.seed, 0)
    ref_out, _, ref_wall = run_pass(ref_ops)
    tr = tracer.Tracer()
    with tr:
        passes = timed_passes(args.workload, models, args.seed, args.seconds, tr)
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"trace_{args.workload}.jsonl")

    attempted, failed, failures = gate_passes(
        [{"ops": ref_ops, "outputs": ref_out}] + passes)
    attempted += 1
    if not same_outputs(ref_ops, ref_out, passes[0]["outputs"]):
        failed += 1
        failures.append("traced pass 0 printed different bytes from the untraced one")

    values = tracer.layer_metrics(passes[0]["stats"], [p["stats"] for p in passes],
                                  passes[0]["wall"] / ref_wall)
    metrics = {name: metric(values[name], unit) for name, unit in tracer.UNITS.items()}
    counts = {name: (f"{len(passes)} traced passes" if name.endswith("_s")
                     else "traced pass 0") for name in metrics}
    return metrics, counts, attempted, failed, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if Path(lowkgreen.__file__).resolve().parent != SRC / "lowkgreen":
        print(f"error: imported lowkgreen from {lowkgreen.__file__}, not {SRC}",
              file=sys.stderr)
        return EXIT_WRONG_LIBRARY

    record = run_record(args)
    print("# run " + json.dumps(record, sort_keys=True))
    models = workloads.build_models()
    run = traced_run if args.trace else untraced_run
    metrics, counts, attempted, failed, failures = run(args, models)

    for msg in failures:
        print("FAILED " + msg, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']} (n: {counts[name]})")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
