"""Benchmark runner for zerohold.

    python3 perfbench/run.py --workload analyze-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: zerohold is imported from ``src/``
next to this directory, never from an installed copy.  One process, one
thread: BLAS/OpenMP pools are pinned to one thread before numpy loads,
``ZEROHOLD_THREADS`` is unset and every sampler call passes ``--threads 1``.

A run writes the workload's spec files (from ``--seed``), makes one untimed
warm-up pass over the batch, then times whole passes through
``zerohold.cli.main`` for ``--seconds``.  After the timed passes every
output is checked against the independent oracles in ``oracles.py``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable report goes to stderr.

End-to-end metrics (``--trace 0``):
  pass_s       wall time of one pass over the batch, summed from each call's
               median over the timed passes
  cold_s       median of 5 wall times of a fresh ``python -m zerohold`` running
               the workload's small command, taken between the timed passes
  setup_s      median over three processes of the time from the start of this
               script to the first timed pass (imports, spec files, warm-up)
  peak_rss_mb  peak resident memory of this process over setup and passes

With ``--trace 1`` the same passes run with spans around each layer function
(``spans.py``) and the per-layer metrics are printed instead.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ZEROHOLD_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

COLD_REPEATS = 5
SETUP_PROBES = 2
IMPORT_REPEATS = 3


def _fail(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def _import_zerohold():
    """Import zerohold.cli from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "zerohold", "cli.py")):
        _fail(f"no zerohold sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import zerohold.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "zerohold"):
        _fail(f"imported zerohold from {cli.__file__}, not from {SRC}")
    return cli


def run_pass(cli, ops) -> tuple:
    """One pass over the batch: (exit code, stdout, stderr) and wall time per call."""
    results, times = [], []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
        times.append(time.perf_counter() - t)
        results.append((rc, out.getvalue(), err.getvalue()))
    return results, times


def pass_time(call_times) -> float:
    """Pass time from each call's median over the passes.

    The machine's speed drifts by several percent within seconds; a call's
    median over the passes drops the stretches that ran slow or fast, where
    the median of whole-pass times keeps whichever the middle pass caught.
    """
    return sum(statistics.median(column) for column in zip(*call_times))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _timed_child(argv) -> tuple:
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    return time.perf_counter() - t, proc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up pass and print the set-up time (used for setup_s)")
    args = parser.parse_args()

    cli = _import_zerohold()
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    batch = workloads.build(args.workload, args.seed, os.path.join(OUT, f"{args.workload}-seed{args.seed}"))
    warm, _ = run_pass(cli, batch.ops)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    # distinct outputs per call, with how many passes produced each
    seen = [{} for _ in batch.ops]
    call_times = []
    cold, cold_ok = [], True

    def cold_sample():
        nonlocal cold_ok
        dt, proc = _timed_child([sys.executable, "-m", "zerohold", *batch.cold_argv])
        cold.append(dt)
        cold_ok &= proc.returncode == 0

    # Without tracing, one cold sample follows each pass until there are
    # COLD_REPEATS; they spread over the run, so a slow spell of the machine
    # reaches only some of them.  The window counts pass time only.
    passes_s = 0.0
    while not call_times or passes_s < args.seconds:
        if tracer:
            tracer.begin_pass()
        results, times = run_pass(cli, batch.ops)
        call_times.append(times)
        passes_s += sum(times)
        for k, res in enumerate(results):
            seen[k][res] = seen[k].get(res, 0) + 1
        if not tracer and len(cold) < COLD_REPEATS:
            cold_sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not tracer and len(cold) < COLD_REPEATS:
        cold_sample()

    passes = len(call_times)
    attempted = passes * len(batch.ops)
    failed = 0
    report = []
    # every call must give the same output on every pass, warm-up included
    stable = all(len(s) == 1 and next(iter(s)) == w for s, w in zip(seen, warm))
    for op, outputs in zip(batch.ops, seen):
        for (rc, out, err), count in outputs.items():
            errs = oracles.check(op, rc, out, err)
            if errs:
                failed += count
                report.append(f"FAILED x{count} {op.label}: " + "; ".join(errs[:3]))
    if not stable:
        report.append("an output changed between passes over the same inputs")

    if tracer:
        metrics = tracer.metrics()
        imports = []
        for _ in range(IMPORT_REPEATS):
            probe = "import time; t = time.perf_counter(); import zerohold.cli; print(time.perf_counter() - t)"
            _, proc = _timed_child([sys.executable, "-c", probe])
            if proc.returncode != 0:
                _fail(f"import probe failed: {proc.stderr.strip()[-500:]}")
            imports.append(float(proc.stdout.strip().splitlines()[-1]))
        metrics["cli.import_s"] = (statistics.median(imports), "s")
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        report.append(f"traced pass_s {pass_time(call_times):.4f} s over {passes} passes; "
                      f"{tracer.sites} wrapped attributes")
    else:
        setups = [setup_s]
        for _ in range(SETUP_PROBES):
            _, proc = _timed_child([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                                    "--seed", str(args.seed), "--setup-only"])
            if proc.returncode != 0:
                _fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            setups.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        if not cold_ok:
            report.append("the cold command did not exit 0")
        metrics = {
            "pass_s": (pass_time(call_times), "s"),
            "cold_s": (statistics.median(cold), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report.append(f"whole passes {[round(sum(x), 3) for x in call_times]}; cold_s {[round(x, 3) for x in cold]}; "
                      f"setup_s {[round(x, 3) for x in setups]}")

    sys.stderr.write(f"perfbench {args.workload} seed={args.seed}: {passes} passes x {len(batch.ops)} calls, "
                     f"{failed} failed\n")
    for line in report:
        sys.stderr.write(f"  {line}\n")
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"  {name} = {value:.6g} {unit}\n")
    result = {
        "correct": stable and cold_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
