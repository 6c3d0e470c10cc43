"""sunmesh benchmark: one closed-loop client driving the library.

Usage (from the repository root):

    python3 bench/run.py --workload mesh_roundtrip --seed 1 --seconds 20 --trace 0

``--trace 0`` times items end to end with tracing off and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced rounds of
the same items and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run and the full result with the machine description are written under
``.bench_out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import NO_ITEM, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("mesh_roundtrip", "haar_sampling", "photon_lift", "cli_pipeline")
SETUP_REPS = 5
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With too few samples the
    smallest one is used, and the count beyond it says so.
    """
    xs = sorted(samples)
    j = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[j], 100.0 * (j + 1) / len(xs), len(xs) - j - 1


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sunmesh").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_item(workload, index: int, tracer) -> tuple[float, str | None]:
    """Make, time and check one item; returns (seconds, failure or None).
    A failed item is counted, never raised."""
    inp = workload.make_input(index)
    if tracer is not None:
        tracer.current_item = index
    failure = None
    t = perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:
        failure = f"raised {exc!r}"
    elapsed = perf_counter() - t
    if tracer is not None:
        tracer.current_item = NO_ITEM
    if failure is None:
        try:
            if tracer is not None:
                workload.absorb_trace(out, index)
            failure = "; ".join(workload.check(inp, out)) or None
        except Exception as exc:
            failure = f"check raised {exc!r}"
    return elapsed, failure


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: the next item starts only after the previous one is
    checked.  Whole rounds run until ``seconds`` have passed, at least one,
    so that every round's mix of items and layer calls is complete.

    With a tracer, even rounds run untraced and odd rounds traced, so both
    see the same drift of the host's speed, and the loop ends after a
    traced round.  ``rounds`` maps each traced item to its round."""
    size = workload.round_size
    period = 2 if tracer is not None else 1
    times = {False: [], True: []}
    problems, rounds = [], {}
    deadline = perf_counter() + seconds
    r = 0
    while r == 0 or r % period or perf_counter() < deadline:
        on = tracer is not None and r % 2 == 1
        if on:
            tracer.install()
            workload.tracer = tracer
        try:
            for index in range(r * size, (r + 1) * size):
                elapsed, failure = run_item(workload, index, tracer if on else None)
                times[on].append(elapsed)
                if failure is not None:
                    problems.append(f"item {index}: {failure}")
                if on:
                    rounds[index] = r
        finally:
            if on:
                tracer.uninstall()
                workload.tracer = None
        r += 1
    return {"times": times[False], "traced_times": times[True], "problems": problems, "rounds": rounds}


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    import workloads as wl

    out_dir.mkdir(parents=True, exist_ok=True)
    workload = wl.WORKLOADS[name](seed, ROOT, out_dir)
    # Each repetition: NumPy, SciPy and sunmesh imported in a fresh
    # interpreter, then input set-up and warm-up in this process.
    imports, setup = [], []
    for rep in range(SETUP_REPS):
        imports.append(wl.fresh_import_s(ROOT))
        t = perf_counter()
        workload.prepare()
        workload.warm_up(rep)
        setup.append(imports[-1] + perf_counter() - t)

    tracer = Tracer() if trace else None
    measured = measure(workload, seconds, tracer)
    times = measured["times"]
    problems = measured["problems"]
    attempted = len(times) + len(measured["traced_times"])
    ips = len(times) / sum(times)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        metrics = {
            key: (value, "ratio" if key.endswith("ratio") else "count" if key.endswith(".calls") else "ms")
            for key, value in layer_metrics(tracer, measured["rounds"]).items()
        }
        metrics["cli.import_s"] = (statistics.median(imports), "s")
        for sub, ms in wl.cli_main_ms(out_dir, seed).items():
            metrics[f"cli.main.{sub}.ms"] = (ms, "ms")
        traced = measured["traced_times"]
        metrics["trace_overhead_ratio"] = (ips / (len(traced) / sum(traced)), "ratio")
        spans_path = out_dir / f"{name}-seed{seed}.spans.jsonl.gz"
        tracer.write_jsonl(spans_path)
        result["spans"] = str(spans_path)
        result["spans_count"] = len(tracer)
    else:
        value, pct, beyond = tail(times)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (ips, "1/s"),
            "item_tail_ms": (1e3 * value, "ms"),
            "peak_rss_mib": (workload.peak_rss_kib() / 1024.0, "MiB"),
        }
        result["item_tail"] = {"percentile": pct, "samples": len(times), "beyond": beyond}
        # Printed and recorded but not a bounded metric: on a host whose
        # speed drifts in phases of tens of seconds, the median item of a
        # run follows the phase that held most of it (see bench/README.md).
        result["item_p50_ms"] = 1e3 * statistics.median(times)
    result.update(
        attempted=attempted,
        failed=len(problems),
        fail_ratio=len(problems) / attempted,
        problems=problems,
        notes=workload.notes,
        metrics={key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    )
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit."""
    lines = [f"workload {result['workload']} seed {result['seed']} trace {result['trace']}"]
    lines.append("env " + json.dumps(result["env"], sort_keys=True))
    for key, m in result["metrics"].items():
        extra = ""
        if key == "item_tail_ms":
            t = result["item_tail"]
            extra = f"  (p{t['percentile']:.1f} of {t['samples']} items, {t['beyond']} beyond)"
        lines.append(f"{key} {m['value']:.6g} {m['unit']}{extra}")
    if "item_p50_ms" in result:
        lines.append(f"item_p50_ms {result['item_p50_ms']:.6g} ms  (not bounded)")
    lines.append(
        f"fail_ratio {result['fail_ratio']:.6g} ratio  ({result['failed']}/{result['attempted']} items failed"
        + "".join(f", {v} {k.replace('_', ' ')}" for k, v in result["notes"].items())
        + ")"
    )
    lines.extend(f"FAIL {p}" for p in result["problems"][:20])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "sunmesh" / "__init__.py").is_file():
        print(f"error: no sunmesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    result["env"] = environment(args.seed)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print("\n".join(report(result)))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
