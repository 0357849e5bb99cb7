"""One workload as a single-process closed loop over ``noma_mec.cli.run(argv)``.

Started by ``run.py`` with the checkout's ``src/`` as the only ``PYTHONPATH``
entry. One client issues the next command only after the previous returns.
Each command's stdout and stderr are captured in memory; only the call to
``cli.run`` is timed, and its output is checked after the timer stops.

Every latency is kept raw and also scaled to the nominal host speed (see
``hostspeed``): after about PROBE_EVERY_S of commands the host is probed, and
the commands in between are scaled by ``PROBE_NOMINAL_S`` over the mean of the
probes on either side.

Modes:
  timed   run a fixed number of commands, in proportion to ``--seconds``;
          report every latency, the items done and the peak RSS. A command
          with a twin (see ``workloads.Command``) runs twice, and its latency
          is the faster run.
  traced  run one fixed pass of commands, alternately untraced and with
          spans on every layer boundary; report per-layer counts and self
          times. The pass is fixed so that every count repeats exactly across
          runs and seeds.

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import workloads
from hostspeed import PROBE_NOMINAL_S, probe

WARMUP_COMMANDS = {"sweep": 2, "verify": 2, "surface": 2, "solve": 20}
TRACED_PASS = {"sweep": 50, "verify": 10, "surface": 3, "solve": 400}
# A timed run measures a fixed number of commands per second of ``--seconds``
# (about the host speed where the benchmark was tuned), so that the sample
# count and the tail percentile of a workload are the same in every run.
COMMANDS_PER_S = {"sweep": 50, "verify": 16, "surface": 3.4, "solve": 240}
# The tail is the latency with this share of the run's commands above it, and
# at least TAIL_MIN_BEYOND: p95, or p80 on the 51 surface commands. Higher
# percentiles of a run are set by the shared host's stalls rather than by the
# program: over 15 runs their spread across seeds was twice that of p95.
TAIL_SHARE = 0.05
TAIL_MIN_BEYOND = 10
PROBE_EVERY_S = 0.05
# A timed run stops here even if the program is slow, to stay inside the harness timeout.
WALL_CAP_S = 120.0


class Loop:
    """The closed loop: attempted and failed operations, and the host probes taken."""

    def __init__(self, cli, twins: bool):
        self.cli = cli
        self.twins = twins
        self.attempted = 0
        self.failures: list[str] = []
        self.probes: list[float] = []

    def step(self, command, tracer=None) -> float:
        """Run one command and, in a timed run, its twin; return the faster latency."""
        latency = self._execute(command, tracer)
        if self.twins and command.twin is not None:
            latency = min(latency, self._execute(command.twin, tracer))
        return latency

    def _execute(self, command, tracer) -> float:
        """Run one command, check it outside the timed region, return its latency.

        The tracer, if any, is taken out during the check, so that the
        check's own calls into ``noma_mec.model`` are not recorded as spans.
        """
        out, err = io.StringIO(), io.StringIO()
        code = None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.run(command.argv)
            except Exception as exc:  # an uncaught exception is a failed operation
                problem = f"uncaught {exc!r}"
            t1 = time.perf_counter()
        self.attempted += 1
        if code is not None:
            if tracer is not None:
                tracer.uninstall()
            try:
                problem = command.check(code, out.getvalue())
            except (ValueError, KeyError, IndexError, StopIteration) as exc:
                problem = f"unreadable output: {exc!r}"
            finally:
                if tracer is not None:
                    tracer.install()
        if problem is not None:
            self.failures.append(f"{' '.join(command.argv)}: {problem}")
        return t1 - t0

    def run(self, commands, n: int, tracer=None, deadline=None) -> dict:
        """Run the next ``n`` commands; return raw and scaled latencies and items done."""
        if not self.probes:
            self.probes.append(probe())
        raw, scaled, items, segment = [], [], 0, []
        for op in range(n):
            if deadline is not None and time.perf_counter() > deadline:
                raise RuntimeError(f"only {op} of {n} commands done in {WALL_CAP_S} s")
            command = next(commands)
            if tracer is not None:
                tracer.current_op = op
            segment.append(self.step(command, tracer))
            items += command.items
            if sum(segment) >= PROBE_EVERY_S or op == n - 1:
                self.probes.append(probe())
                factor = PROBE_NOMINAL_S / ((self.probes[-2] + self.probes[-1]) / 2.0)
                raw += segment
                scaled += [x * factor for x in segment]
                segment = []
        return {"latencies_s": raw, "scaled_latencies_s": scaled, "items": items}


def _commands(args, model):
    return workloads.stream(args.workload, args.seed, model, args.workdir)


def _warm_loop(args, cli, model, twins: bool) -> Loop:
    loop = Loop(cli, twins)
    commands = _commands(args, model)
    for _ in range(WARMUP_COMMANDS[args.workload]):
        loop.step(next(commands))
    return loop


def timed_commands(workload: str, seconds: float) -> int:
    return max(2 * TAIL_MIN_BEYOND + 1, round(seconds * COMMANDS_PER_S[workload]))


def tail_beyond(samples: int) -> int:
    """How many of a run's latencies lie above its tail latency."""
    return max(TAIL_MIN_BEYOND, int(samples * TAIL_SHARE))


def timed(args, cli, model) -> dict:
    loop = _warm_loop(args, cli, model, twins=True)
    done = loop.run(_commands(args, model), timed_commands(args.workload, args.seconds),
                    deadline=time.perf_counter() + WALL_CAP_S)
    return {
        **done,
        "probes_s": loop.probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": loop.attempted,
        "failures": loop.failures,
    }


def traced(args, cli, model) -> dict:
    from tracing import Tracer

    n = TRACED_PASS[args.workload]
    # Without twins, so that the counts are those of one run per command.
    loop = _warm_loop(args, cli, model, twins=False)

    def one_pass(tracer=None) -> tuple[float, int]:
        if tracer is not None:
            tracer.install()
        try:
            done = loop.run(_commands(args, model), n, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return sum(done["scaled_latencies_s"]), done["items"]

    # Untraced and traced passes alternate, U T U T U, so that drift of the
    # host does not show up as tracing overhead. The counts come from the
    # first traced pass.
    tracer = Tracer()
    untraced, traced_passes = [], []
    for k in range(5):
        if k % 2 == 0:
            untraced_s, items = one_pass()
            untraced.append(untraced_s)
        else:
            traced_passes.append(one_pass(tracer if k == 1 else Tracer())[0])
    untraced_s = sum(untraced) / len(untraced)
    traced_s = sum(traced_passes) / len(traced_passes)
    metrics = tracer.summary(items)
    metrics["trace.overhead_ratio"] = untraced_s / traced_s
    if args.spans:
        tracer.write_csv(args.spans)
    return {
        "metrics": metrics,
        "items": items,
        "commands": n,
        "untraced_scaled_s": untraced_s,
        "traced_scaled_s": traced_s,
        "spans": len(tracer.fn),
        "attempted": loop.attempted,
        "failures": loop.failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_KEYS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--src", required=True, help="the checkout's src/ directory")
    parser.add_argument("--workdir", required=True, help="scratch directory for config files")
    parser.add_argument("--spans", help="write the traced spans to this CSV path")
    args = parser.parse_args()

    import numpy
    import noma_mec
    from noma_mec import cli, model

    package_dir = os.path.dirname(os.path.abspath(noma_mec.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(args.src):
        print(f"noma_mec imported from {package_dir}, not from {args.src}", file=sys.stderr)
        return 1
    result = (timed if args.mode == "timed" else traced)(args, cli, model)
    result["provenance"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "noma_mec": noma_mec.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
