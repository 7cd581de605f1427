"""Benchmark of topmonodromy on three workloads: loops, actions, simulate.

    python3 bench/run.py --workload loops --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src.  One
caller on one thread runs the workload's seeded input set in whole passes
until --seconds have gone by (and at least three passes), timing each op
on its own.  With --trace 0 the times are in reference seconds: the
machine's speed is sampled by a fixed kernel inside every op, and each op's
time is scaled to the kernel's reference speed (see yardstick.py).  Every
op's output is then checked against a reference made apart from the
program.  The last line of stdout is a JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics from spans around calls into the
library's modules with --trace 1.  See bench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import yardstick  # noqa: E402

# One thread: BLAS must not spread the small LAPACK calls over both cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
WORKLOADS = ("loops", "actions", "simulate")
MIN_PASSES = 3
SETUP_REPEATS = 3  # this process plus two fresh ones
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("pass_s", "s"),
    ("pass_best_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _setup(name, seed, tiny, tracer, out_dir):
    """Import the package, make and validate the inputs, and warm up."""
    import numpy as np

    import workloads

    if name == "loops":
        wl = workloads.Loops()
    elif name == "actions":
        wl = workloads.Actions()
    else:
        wl = workloads.Simulate(str(out_dir))
    if tracer is not None:
        tracer.install()
        tracer.recording = True
    inputs = wl.make_inputs(np.random.default_rng(seed), tiny)
    if tracer is not None:
        tracer.recording = False
    wl.warm_up(inputs)
    return wl, inputs


def _setup_in_fresh_process(name, seed):
    """Set-up time of a fresh process, in reference seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _passes(wl, inputs, seconds, min_passes, tracer):
    """Whole passes over the inputs; returns (input, pass, start, end, out, error)."""
    records = []
    start = time.perf_counter()
    k = 0
    while k < min_passes or time.perf_counter() - start < seconds:
        k += 1
        if tracer is not None:
            tracer.phase = k
            tracer.recording = True
        for i, inp in enumerate(inputs):
            t = time.perf_counter()
            try:
                out, err = wl.op(inp), None
            except Exception as exc:  # a failed op is counted; the run goes on
                out, err = None, exc
            records.append((i, k, t, time.perf_counter(), out, err))
        if tracer is not None:
            tracer.recording = False
    return records


def _check(wl, inputs, records, tracer):
    """Check every op's output; returns (failed, misses, problem counts)."""
    failed = misses = 0
    problems = Counter()
    for i, k, _, _, out, err in records:
        label = inputs[i].label
        if err is not None:
            failed += 1
            problems[f"{label}: {type(err).__name__}: {err}"] += 1
            continue
        try:
            bad = wl.check(inputs[i], out)
        except Exception as exc:  # a check that cannot run is a miss
            bad = [f"check raised {type(exc).__name__}: {exc}"]
        if bad:
            failed += 1
            misses += 1
            problems[f"{label}: {'; '.join(bad)}"] += 1
        if tracer is not None:
            for name, value in wl.counters(inputs[i], out).items():
                tracer.count(name, value, phase=k)
        if hasattr(wl, "discard"):
            wl.discard(out)
    return failed, misses, problems


def run(name, seed, seconds, trace, t0, tiny=False, min_passes=MIN_PASSES,
        setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns the result object and summary lines."""
    import spans

    out_dir = OUT / f"{name}-{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    sampler = None if trace else _start_sampler()
    try:
        wl, inputs = _setup(name, seed, tiny, tracer, out_dir)
        setup_end = time.perf_counter()
        records = _passes(wl, inputs, seconds, min_passes, tracer)
        if sampler is not None:
            sampler.stop()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, misses, problems = _check(wl, inputs, records, tracer)
    finally:
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)

    passes = records[-1][1]
    wall = [r[3] - r[2] for r in records]
    times = wall if trace else [sampler.reference_seconds(r[2], r[3]) for r in records]
    per_input = _by_input(records, times, len(inputs))
    pass_s = sum(statistics.median(t) for t in per_input)
    lines = [
        f"{name} seed {seed}: {len(inputs)} inputs x {passes} passes = "
        f"{len(records)} ops, {failed} failed",
    ]
    lines += [f"  FAILED x{n}: {p}" for p, n in sorted(problems.items())]
    lines.append("  pass wall times: " + " ".join(
        f"{sum(w for r, w in zip(records, wall) if r[1] == k):.3f}"
        for k in range(1, passes + 1)
    ) + " s")
    if tracer is None:
        setups = [sampler.reference_seconds(t0, setup_end)] + [
            _setup_in_fresh_process(name, seed) for _ in range(setup_repeats - 1)
        ]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(records) / sum(times),
            "pass_s": pass_s,
            "pass_best_s": sum(min(t) for t in per_input),
            "peak_rss_mb": peak_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        lines.append(
            f"  yardstick: {sampler.count} samples, median "
            f"{1e3 * statistics.median(sampler.seconds):.4f} ms against "
            f"{1e3 * yardstick.REF_S:.4f} ms reference"
        )
        wall_pass_s = sum(statistics.median(w) for w in _by_input(records, wall, len(inputs)))
        lines.append(f"  wall-clock pass_s {wall_pass_s:.4f} s, set-up {setup_end - t0:.4f} s")
        lines.append("  set-up samples: " + ", ".join(f"{s:.4f}" for s in setups) + " ref s")
    else:
        metrics = tracer.per_layer()
        cover = statistics.median(
            tracer.covered_s(k) / sum(w for r, w in zip(records, wall) if r[1] == k)
            for k in range(1, passes + 1)
        )
        lines.append(
            f"  traced pass_s {pass_s:.4f} s; spans cover {100.0 * cover:.2f} % "
            "of op time (median over passes)"
        )
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"spans-{name}-seed{seed}.csv"
        tracer.write(trace_path, t0)
        lines.append(f"  {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    for n, m in metrics.items():
        lines.append(f"  {n} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": misses == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _start_sampler():
    sampler = yardstick.Sampler()
    sampler.start()
    return sampler


def _by_input(records, times, count):
    """Each input's times, in pass order."""
    return [[t for r, t in zip(records, times) if r[0] == i] for i in range(count)]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up alone in this process and print it")
    return p.parse_args(argv)


def main(argv=None, tiny=False, min_passes=MIN_PASSES, setup_repeats=SETUP_REPEATS):
    args = _parse(argv)
    if not (SRC / "topmonodromy" / "__init__.py").is_file():
        print(f"no topmonodromy package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.setup_only:
        out_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
        out_dir.mkdir(parents=True, exist_ok=True)
        sampler = _start_sampler()
        try:
            _setup(args.workload, args.seed, tiny, None, out_dir)
            setup_end = time.perf_counter()
        finally:
            sampler.stop()
            shutil.rmtree(out_dir, ignore_errors=True)
        print(json.dumps({"setup_s": sampler.reference_seconds(_T0, setup_end)}))
        return 0
    result, lines = run(
        args.workload, args.seed, args.seconds, args.trace, _T0,
        tiny=tiny, min_passes=min_passes, setup_repeats=setup_repeats,
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
