"""causalsde benchmark: four acceptance-shaped workloads.

One workload, one fresh process:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A run record and
the per-verdict times go to ``bench/results/``.

Self-checks, each running every workload in its own child process:

    python3 bench/run.py --all [--seed N --seconds S --trace 0|1]
    python3 bench/run.py --smoke
    python3 bench/run.py --steadiness [--workload NAME --seed N --seconds S]

See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One OpenBLAS thread, set before numpy is imported here or in a child. With
# two threads on a shared two-core machine a verdict's time follows how busy
# the second core is, and identify-null's run-to-run spread doubled.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("ou-closed-form", "identify-null", "commute-cli", "semigroup-jump")

# setup_s is the median over this many fresh processes plus the run's own set-up
SETUP_CHILDREN = 2
# seeds per workload and run set in --steadiness, as in the acceptance check
REPEATS = 10


def _parse(argv):
    p = argparse.ArgumentParser(description="causalsde benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="run length (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for --smoke")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, traced and untraced, check the result lines")
    p.add_argument("--steadiness", action="store_true",
                   help="two run sets; each metric's spread and drift against its bound")
    args = p.parse_args(argv)
    single = not (args.all or args.smoke or args.steadiness)
    if single and args.workload is None:
        p.error("--workload is required for a single run")
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up


def _setup(args, workdir):
    """Import plus construction of the workload's systems and configs: setup_s.

    causalsde is imported from this checkout's src/ and nowhere else.
    """
    started = perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import causalsde

    if Path(causalsde.__file__).resolve().parent != SRC / "causalsde":
        raise ImportError(f"causalsde was imported from {causalsde.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    return workload, perf_counter() - started


def _child(*argv) -> dict:
    """Run this script in a fresh process; return its last output line as JSON."""
    cmd = [sys.executable, str(BENCH / "run.py"), *map(str, argv)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run_child(workload, seed, seconds, trace, size="full") -> dict:
    return _child("--workload", workload, "--seed", seed, "--seconds", seconds,
                  "--trace", trace, "--size", size)


# ---------------------------------------------------------------------------
# one run


def _measure(workload, seconds, n_passes=None):
    """Whole passes until ``seconds`` have gone (or exactly ``n_passes``).

    Returns the passes, each a list of verdicts, and the wall time.
    """
    passes = []
    started = perf_counter()
    while (n_passes is None and (not passes or perf_counter() - started < seconds)) or (
        n_passes is not None and len(passes) < n_passes
    ):
        passes.append(workload.run_pass(len(passes)))
    return passes, perf_counter() - started


def _end_to_end(passes, setup_samples):
    """End-to-end metrics of one run: medians over its passes and verdicts."""
    rates = [sum(v.path_steps for v in p) / sum(v.seconds for v in p) for p in passes]
    return {
        "path_steps_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "verdict_s.p50": {"value": statistics.median(v.seconds for p in passes for v in p),
                          "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
    }


def _per_layer(tracer, verdicts, overhead_s):
    """Per-layer metrics named in BENCHMARK.json; ``layer.field`` is read
    from the trace's layer ``layer`` (a name split at its last dot)."""
    layers = tracer.layer_times()
    for name, sums in tracer.sums.items():
        layers.setdefault(name, {}).update(sums)
    batch = layers.get("system.eval_batch", {})
    if batch.get("calls"):
        batch["rows_per_call"] = batch["rows"] / batch["calls"]
    layers.setdefault("driver.sample_increments", {})["peak_bytes"] = max(
        layers.get(n, {}).get("max_bytes", 0) for n in ("driver.sample_increments", "euler.draw_paths")
    )
    paths = sum(v.paths for v in verdicts)
    exploded = sum(v.exploded for v in verdicts)
    layers["euler"] = {"exploded_paths": exploded,
                       "alive_frac": 1.0 - exploded / paths if paths else 0.0}
    layers["stats"] = {"null_rejections": sum(v.null_rejection for v in verdicts)}
    layers["trace"] = {"overhead_s": overhead_s}
    out = {}
    for metric in _spec()["per_layer"]:
        layer, field = metric["name"].rsplit(".", 1)
        out[metric["name"]] = {"value": layers.get(layer, {}).get(field, 0), "unit": metric["unit"]}
    return out


def _single(args) -> int:
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    try:
        return _single_in(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _single_in(args, workdir) -> int:
    if args.setup_only:
        _, seconds = _setup(args, workdir)
        print(json.dumps({"setup_s": seconds}))
        return 0
    setup_samples = [
        _child("--setup-only", "--workload", args.workload, "--seed", args.seed,
               "--size", args.size)["setup_s"]
        for _ in range(SETUP_CHILDREN)
    ]
    workload, seconds = _setup(args, workdir)
    setup_samples.append(seconds)

    from tracing import Tracer

    workload.run_pass(-1)  # untimed warm-up
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "setup_samples_s": setup_samples}
    if args.trace == 0:
        passes, wall = _measure(workload, args.seconds)
        metrics = _end_to_end(passes, setup_samples)
        verdicts = [v for p in passes for v in p]
        record.update(passes=len(passes), wall_s=wall)
    else:
        # the same passes (same seeds) untraced, then traced: the difference is the overhead
        plain, plain_wall = _measure(workload, args.seconds / 2)
        tracer = Tracer()
        workload.tracer = tracer
        tracer.install()
        try:
            traced, wall = _measure(workload, None, len(plain))
        finally:
            tracer.uninstall()
        verdicts = [v for p in traced for v in p]
        metrics = _per_layer(tracer, verdicts, wall - plain_wall)
        verdicts = [v for p in plain for v in p] + verdicts
        record.update(passes=2 * len(plain), wall_s=plain_wall + wall, untraced_wall_s=plain_wall,
                      traced_wall_s=wall, spans=len(tracer.start))
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.npz"
        import numpy as np

        np.savez(spans_path, names=np.array(tracer.layer_names), **tracer.arrays())
        record["spans_file"] = spans_path.name

    failed = [v for v in verdicts if not v.ok]
    unexpected = [v for v in failed if not v.known_defect]
    record.update(_run_record(workload))
    record["verdicts"] = [vars(v) for v in verdicts]
    record["ops_failed_frac"] = len(failed) / len(verdicts)
    record["metrics"] = metrics
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload}: {len(verdicts)} verdicts in {record['passes']} passes, "
          f"ops_failed_frac {len(failed)}/{len(verdicts)}; record {out_path.relative_to(ROOT)}")
    for v in failed[:3]:
        print(f"  failed: {v.detail}" + (f" [known defect: {v.known_defect}]" if v.known_defect else ""))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": len(verdicts),
                      "failed": len(failed), "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# run record


def _run_record(workload) -> dict:
    import causalsde
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "CAUSAL_SDE_THREADS")},
        "causalsde": causalsde.__version__,
        "git_commit": _git_commit(),
        "derived_seeds": sorted(set(workload.seeds)),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    out = {}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[Path(lib).name] = int(fn())
                break
    return out


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# self-checks over every workload


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _all(args) -> int:
    ok = True
    for name in WORKLOAD_NAMES:
        result = _run_child(name, args.seed, args.seconds, args.trace, args.size)
        ok &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"ops_failed_frac={result['failed'] / result['attempted']:.4g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def _smoke(_args) -> int:
    spec = _spec()
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = _run_child(name, 0, 1, trace, size="tiny")
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(result)}")
            if sorted(result["metrics"]) != sorted(expected[trace]):
                problems.append("metric names differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} attempted={result['attempted']}")
            ok &= not problems
            print(f"smoke {name} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
    return 0 if ok else 1


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _steadiness(args) -> int:
    """Run the set twice; print each metric's spread (quartile distance over
    the median) and the drift between the two sets' medians, against the
    bound in BENCHMARK.json.  verdict_s.p90 is pooled over a set's verdicts
    and printed only when at least ten verdicts lie beyond it."""
    spec = _spec()
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    ok = True
    for name in names:
        sets = []
        for _ in range(2):
            runs, times = [], []
            for r in range(REPEATS):
                seed = args.seed + r
                runs.append(_run_child(name, seed, args.seconds, 0))
                with open(RESULTS / f"{name}-seed{seed}-trace0.json") as fh:
                    times += [v["seconds"] for v in json.load(fh)["verdicts"]]
            sets.append((runs, times))
        print(f"{name}: {REPEATS} seeds per set, run length {args.seconds:g} s")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            meds, spreads = [], []
            for runs, _ in sets:
                values = [run["metrics"][key]["value"] for run in runs]
                meds.append(statistics.median(values))
                spreads.append(_spread(values))
            worse = (meds[1] - meds[0]) / meds[0] * (1 if metric["better"] == "lower" else -1)
            widest = 0.0 if key == "setup_s" else max(spreads)  # setup_s: drift only
            if widest > bound or worse > bound:
                verdict = "OVER BOUND"
            elif widest > bound / 3:
                verdict = "within bound, spread above a third of it"
            else:
                verdict = "steady"
            ok &= verdict != "OVER BOUND"
            print(f"  {key:18s} median {meds[0]:.6g} / {meds[1]:.6g} {metric['unit']}; "
                  f"spread {spreads[0]:.3f} / {spreads[1]:.3f}; drift {worse:+.3f}; "
                  f"bound {bound}: {verdict}")
        for k, (runs, times) in enumerate(sets):
            n = len(times)
            line = f"  set {k + 1}: {n} verdicts, p50 {statistics.median(times):.4g} s"
            if n >= 100:
                line += f", p90 {statistics.quantiles(times, n=10)[-1]:.4g} s"
            else:
                line += " (p90 needs 100 verdicts for ten beyond it)"
            failed = sum(run["failed"] for run in runs)
            attempted = sum(run["attempted"] for run in runs)
            print(line + f"; ops_failed_frac {failed}/{attempted}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "causalsde" / "__init__.py").is_file():
        print(f"bench: no causalsde sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return _smoke(args)
    if args.steadiness:
        return _steadiness(args)
    if args.all:
        return _all(args)
    return _single(args)


if __name__ == "__main__":
    sys.exit(main())
