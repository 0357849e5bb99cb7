"""Benchmark for the ``noma-mec`` CLI: four seeded workloads, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads (inputs drawn from a Philox stream keyed by ``--seed``):
  sweep    ``noma-mec sweep`` commands, 161 rows each, d_n from d_m to 3 d_m
           (the README's step of d_m / 80 over the wider range); each runs
           with a twin of the same work, and the faster run counts
  verify   ``noma-mec verify`` campaigns of 200 scenarios (the CLI default),
           derived seeds
  surface  ``noma-mec surface`` commands at 200 x 200 samples (the CLI default)
  solve    one-scenario ``noma-mec solve`` commands: every regime, saturated
           exponents, ``--config`` with flag overrides, 20% invalid inputs;
           each runs with a twin of the same work, and the faster run counts

``--trace 0`` prints the end-to-end metrics, one per line and then in the
result object: ``setup_s`` (median time of 8 fresh
``python -m noma_mec --version`` starts, each scaled by a reference start of
the bare interpreter with numpy), ``throughput`` (items per second:
sweep rows, campaign scenarios, surface samples or solve commands),
``op_p50_ms`` and ``op_tail_ms`` (latency of one ``cli.run`` call),
``peak_rss_mb`` of the workload process, and ``error_rate`` (failed over
attempted operations; the result object carries both counts). A run
measures a fixed number of commands per second of ``--seconds``, so the tail,
the latency with 5% of the run's commands and at least 10 above it, sits at
the same percentile in every run of a workload; the report gives that
percentile and the number of commands above it.
Command latencies are scaled to a nominal host speed by an interleaved probe
(see ``hostspeed``); the unscaled figures are in the report line.

``--trace 1`` runs a fixed pass with a span around every call into a public
function of ``model``, ``closed_form``, ``strategy``, ``oracle``,
``experiments`` and ``cli``, and prints the per-layer metrics, the
``-X importtime`` split of the package import, and the tracing overhead. The
output checks run with the wrappers taken out, so only the program's own calls
are counted. The report line gives each layer's share of traced time and
whether each share predicted for the workload held; the spans go to
``.perfbench_run/spans-<workload>.csv``.

The last stdout line is the result object; the line before it is a JSON
report with provenance (Python, numpy, nproc, commit, input sizes). The
package is imported from the checkout's ``src/`` and nothing else, and the
benchmark needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import worker
import workloads
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

SETUP_STARTS = 8
# Typical time of the reference start on the host where the benchmark was tuned.
SETUP_REFERENCE_NOMINAL_S = 0.2
IMPORTTIME_STARTS = 5
START_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run the interpreter in the checkout with its ``src/`` as the only PYTHONPATH entry."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=timeout)


def measure_setup() -> tuple[float, list[float], list[float]]:
    """Median time from a fresh interpreter to a parser that answers ``--version``.

    Each start alternates with a reference start, ``python -c "import numpy"``,
    which shares the interpreter and numpy start-up but no code of the
    package. A start is scaled by SETUP_REFERENCE_NOMINAL_S over the reference
    start next to it, which removes the slow phases of a shared host; the raw
    times are returned too.
    """
    scaled, raw, reference = [], [], []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        done = _python(["-m", "noma_mec", "--version"], START_TIMEOUT_S)
        t1 = time.perf_counter()
        ref = _python(["-c", "import numpy"], START_TIMEOUT_S)
        t2 = time.perf_counter()
        if done.returncode != 0 or not done.stdout.startswith("noma-mec "):
            raise RuntimeError(f"noma-mec --version failed: {done.returncode} {done.stderr}")
        if ref.returncode != 0:
            raise RuntimeError(f"import numpy failed: {ref.stderr}")
        if i > 0:  # the first start may compile bytecode
            raw.append(t1 - t0)
            reference.append(t2 - t1)
            scaled.append((t1 - t0) * SETUP_REFERENCE_NOMINAL_S / (t2 - t1))
    return statistics.median(scaled), raw, reference


def measure_imports() -> dict[str, float]:
    """Cumulative import time of ``noma_mec`` and of numpy, from ``-X importtime``."""
    package, numpy = [], []
    for _ in range(IMPORTTIME_STARTS):
        done = _python(["-X", "importtime", "-c", "import noma_mec"], START_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"import noma_mec failed: {done.stderr}")
        cumulative = {}
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]))
        package.append(cumulative["noma_mec"] / 1e6)
        numpy.append(cumulative["numpy"] / 1e6)
    return {"process.import_s": statistics.median(package),
            "process.numpy_import_s": statistics.median(numpy)}


def provenance(workload: str, seconds: float) -> dict:
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    package = os.path.join(SRC, "noma_mec")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sizes = workloads.input_sizes(workload)
    sizes["traced_pass_commands"] = worker.TRACED_PASS[workload]
    sizes["timed_commands"] = worker.timed_commands(workload, seconds)
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "input_sizes": sizes}


def run_worker(args, mode: str, workdir: str) -> dict:
    argv = [os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode, "--src", SRC, "--workdir", workdir]
    if mode == "traced":
        argv += ["--spans", os.path.join(RUN_DIR, f"spans-{args.workload}.csv")]
    done = _python(argv, WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


# Predicted layer shares of traced time: (workload, description, test on shares and metrics).
PREDICTIONS = (
    ("verify", "oracle dominant on verify (share > 0.5)", lambda s, m: s["oracle"] > 0.5),
    ("sweep", "oracle ~0 on sweep (share < 0.05)", lambda s, m: s["oracle"] < 0.05),
    ("surface", "oracle ~0 on surface (share < 0.05)", lambda s, m: s["oracle"] < 0.05),
    ("solve", "oracle ~0 on solve (share < 0.05)", lambda s, m: s["oracle"] < 0.05),
    ("surface", "experiments.render dominant on surface (largest share)",
     lambda s, m: max(s, key=s.get) == "experiments.render"),
    ("solve", "cli dominant on solve (largest share)", lambda s, m: max(s, key=s.get) == "cli"),
    ("sweep", "closed_form.hybrid_powers_per_item == 2.0 on sweep",
     lambda s, m: m["closed_form.hybrid_powers_per_item"] == 2.0),
)


def traced_report(args, result: dict) -> tuple[dict, dict]:
    metrics = result["metrics"]
    metrics.update(measure_imports())
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    shares = {layer: metrics[f"{layer}.self_s"] / total for layer in LAYERS}
    held = {text: ("held" if test(shares, metrics) else "failed")
            for workload, text, test in PREDICTIONS if workload == args.workload}
    units = {"calls": "count", "errors": "count", "self_s": "s", "evals": "count",
             "evals_per_call": "evals/call", "surface_bytes": "bytes_computed",
             "records": "count", "bytes": "bytes", "bytes_per_s": "bytes/s",
             "parser_builds": "count", "hybrid_powers_per_item": "calls/item",
             "import_s": "s", "numpy_import_s": "s", "overhead_ratio": "ratio"}
    out = {name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
           for name, value in metrics.items()}
    for name, metric in out.items():
        print(f"{args.workload:8s} {name:36s} {metric['value']:.6g} {metric['unit']}")
    report = {"layer_share_of_traced_time": shares, "predictions": held,
              "traced_pass": {k: result[k] for k in ("commands", "items", "untraced_scaled_s",
                                                     "traced_scaled_s", "spans")}}
    return out, report


def _latency_metrics(result: dict, key: str) -> dict[str, float]:
    latencies = result[key]
    return {
        "throughput": result["items"] / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": sorted(latencies)[-worker.tail_beyond(len(latencies)) - 1] * 1e3,
    }


def timed_report(args, result: dict) -> tuple[dict, dict]:
    setup, starts, reference_starts = measure_setup()
    samples = len(result["latencies_s"])
    units = {"setup_s": "s", "throughput": "items/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}
    values = {"setup_s": setup, **_latency_metrics(result, "scaled_latencies_s"),
              "peak_rss_mb": result["peak_rss_mb"]}
    out = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    error_rate = len(result["failures"]) / result["attempted"]
    report = {"error_rate": error_rate,
              "op_tail_percentile": 100.0 * (samples - worker.tail_beyond(samples)) / samples,
              "op_tail_samples_beyond": worker.tail_beyond(samples),
              "op_samples": samples,
              "items": result["items"],
              "unscaled": _latency_metrics(result, "latencies_s"),
              "probe_median_s": statistics.median(result["probes_s"]),
              "setup_starts_s": starts,
              "setup_reference_starts_s": reference_starts}
    for name, value in values.items():
        print(f"{args.workload:8s} {name:12s} {value:.6g} {units[name]}")
    print(f"{args.workload:8s} {'error_rate':12s} {error_rate:.6g} failed/attempted")
    return out, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_KEYS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "noma_mec", "__init__.py")):
        print(f"error: no noma_mec package under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run_worker(args, "traced" if args.trace else "timed", workdir)
        metrics, report = (traced_report if args.trace else timed_report)(args, result)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = result["failures"]
    report["provenance"] = {**provenance(args.workload, args.seconds), **result["provenance"]}
    report["failures"] = failures[:10]
    report["workload"], report["seed"] = args.workload, args.seed
    print(json.dumps(report))
    print(json.dumps({"correct": not failures, "attempted": result["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
