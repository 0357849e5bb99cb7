"""Seeded command streams for the four workloads, and their output checks.

Every workload is an endless, deterministic stream of ``noma-mec`` argument
lists drawn from a Philox generator keyed by ``(seed, workload)``. Per-command
sizes are fixed, so every seed does the same amount of work and only the
values differ. Each command carries an ``items`` count (sweep rows, campaign
scenarios, surface samples, or 1 for a solve) and a ``check`` that inspects
the exit code and captured stdout.

The checks never read the closed forms: they use the regime rule
``d_n < 2 d_m``, row counts, and the direct evaluation in ``noma_mec.model``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

SWEEP_STEPS = 161          # d_m to 3 d_m at the README step of d_m / 80: every regime
VERIFY_COUNT = 200         # scenarios per campaign, the CLI default
SURFACE_RESOLUTION = 200   # samples per axis, the CLI default: 40001 CSV rows per command
SOLVE_INVALID = ["neg_n", "order", "missing", "bad_config"]   # each must exit 1
SOLVE_BLOCK = (            # one shuffled block of 20 solve commands
    ["hybrid"] * 4 + ["degenerate"] * 2 + ["boundary"] * 2 + ["oma"] * 3
    + ["saturated"] * 2 + ["config"] * 3 + SOLVE_INVALID
)

# A schedule must deliver the task up to this relative shortfall, and must
# reproduce the CSV energy up to this relative error.
NATS_RTOL = 1e-9
ENERGY_RTOL = 1e-12

# The task size of a twin command, relative to its first command.
TWIN_SCALE = 1.0 + 2.0**-30

WORKLOAD_KEYS = {"sweep": 1, "verify": 2, "surface": 3, "solve": 4}


class Command(NamedTuple):
    argv: list[str]
    items: int
    check: Callable[[int, str], str | None]   # exit code, stdout -> problem or None
    # A command of the same work, run right after this one; the latency of the
    # pair is the faster of the two, so that a stall of the host or a garbage
    # collection of the whole heap, which hits one run of a pair, does not
    # count. The twin differs in the task size only, so that no result of the
    # first run can be reused for it. Only sweep and solve, whose commands
    # take 9 and 2 ms, have twins: there such a stall is as long as the
    # command, and in ten-seed sets a noisy host moved the p95 latency by 2x
    # (sweep) and 3.5x (solve) and solve throughput by 50% from run to run.
    twin: "Command | None" = None


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, WORKLOAD_KEYS[workload]]))


def _r(x: float) -> str:
    return repr(float(x))


def _key_values(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith("#"):
            pairs[key] = value
    return pairs


def _meta(lines: list[str]) -> dict[str, float]:
    meta = {}
    for line in lines:
        if line.startswith("# ") and "=" in line and not line.startswith("# tool="):
            key, _, value = line[2:].partition("=")
            meta[key] = float(value)
    return meta


def _expected_selection(d_m: float, d_n: float) -> str:
    return "hybrid-noma" if d_n < 2.0 * d_m else "oma"


def _expected_regime(d_m: float, d_n: float) -> str:
    if d_n == d_m:
        return "degenerate"
    if d_n < 2.0 * d_m:
        return "hybrid"
    if d_n == 2.0 * d_m:
        return "boundary"
    return "oma-favored"


# --- sweep ---------------------------------------------------------------

def _check_sweep(model, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    meta = _meta(lines[:header])
    rows = lines[header + 1:]
    if len(rows) != SWEEP_STEPS:
        return f"{len(rows)} rows, expected {SWEEP_STEPS}"
    nats, d_m, h_m_sq, h_n_sq = meta["nats"], meta["d_m"], meta["h_m_sq"], meta["h_n_sq"]
    previous = -math.inf
    for row in rows:
        fields = row.split(",")
        d_n, e_hybrid, _, _, p1, p2, t_n = (float(v) for v in fields[:7])
        if not d_n > previous:
            return f"d_n not ascending at {row}"
        previous = d_n
        if fields[7] != _expected_selection(d_m, d_n):
            return f"selected={fields[7]} at d_n={d_n}, d_m={d_m}"
        scenario = model.OffloadScenario(nats, d_m, d_n, h_m_sq, h_n_sq)
        schedule = model.PowerSchedule(p_n1=p1, p_n2=p2, t_n=t_n)
        energy = model.schedule_energy(scenario, schedule)
        if not abs(energy - e_hybrid) <= ENERGY_RTOL * e_hybrid:
            return f"schedule energy {energy!r} != e_hybrid {e_hybrid!r}"
        if not model.offloaded_nats(scenario, schedule) >= nats * (1.0 - NATS_RTOL):
            return f"schedule misses the task at d_n={d_n}"
    return None


def sweep_stream(seed: int, model):
    rng = _rng(seed, "sweep")
    check = lambda code, out: _check_sweep(model, code, out)  # noqa: E731
    while True:
        nats = rng.uniform(1.0, 40.0)
        d_m = rng.uniform(1.0, 50.0)
        h_m_sq, h_n_sq = rng.uniform(0.1, 10.0, size=2)
        first, twin = (Command(["sweep", "--n", _r(n), "--dm", _r(d_m),
                                "--hm2", _r(h_m_sq), "--hn2", _r(h_n_sq), "--from", _r(d_m),
                                "--to", _r(3.0 * d_m), "--steps", str(SWEEP_STEPS)],
                               SWEEP_STEPS, check)
                       for n in (nats, nats * TWIN_SCALE))
        yield first._replace(twin=twin)


# --- verify --------------------------------------------------------------

def verify_stream(seed: int):
    rng = _rng(seed, "verify")
    while True:
        campaign_seed = int(rng.integers(0, 2**32))

        def check(code, out, campaign_seed=campaign_seed):
            values = _key_values(out)
            if code != 0 or values.get("result") != "PASS":
                return f"campaign {campaign_seed}: exit {code}, result={values.get('result')}"
            if values.get("count") != str(VERIFY_COUNT) or values.get("seed") != str(campaign_seed):
                return f"campaign {campaign_seed}: echoed seed/count differ"
            return None

        argv = ["verify", "--seed", str(campaign_seed), "--count", str(VERIFY_COUNT)]
        yield Command(argv, VERIFY_COUNT, check)


# --- surface -------------------------------------------------------------

def _check_surface(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = lines[header + 1:]
    expected = SURFACE_RESOLUTION**2 + 1
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    if not rows[-1].endswith(",optimum"):
        return f"last row is not the optimum: {rows[-1]}"
    return None


def surface_stream(seed: int):
    rng = _rng(seed, "surface")
    while True:
        nats = rng.uniform(1.0, 40.0)
        d_m = rng.uniform(1.0, 50.0)
        d_n = d_m * (1.0 + rng.uniform(0.05, 1.0))
        t_n = min(d_n - d_m, d_m) * rng.uniform(0.1, 1.0)
        h_m_sq, h_n_sq = rng.uniform(0.1, 10.0, size=2)
        argv = ["surface", "--n", _r(nats), "--dm", _r(d_m), "--dn", _r(d_n),
                "--hm2", _r(h_m_sq), "--hn2", _r(h_n_sq),
                "--tn", _r(t_n), "--resolution", str(SURFACE_RESOLUTION)]
        yield Command(argv, SURFACE_RESOLUTION**2 + 1, _check_surface)


# --- solve ---------------------------------------------------------------

def _solve_check(expected_code: int, d_m: float | None, d_n: float | None, h_n_sq=None):
    def check(code, out):
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        if expected_code != 0:
            return None
        values = _key_values(out)
        if float(values["d_n"]) != d_n or float(values["d_m"]) != d_m:
            return f"echoed deadlines differ: {values['d_m']}, {values['d_n']}"
        if h_n_sq is not None and float(values["h_n_sq"]) != h_n_sq:
            return f"flag override lost: h_n_sq={values['h_n_sq']}"
        if values["regime"] != _expected_regime(d_m, d_n):
            return f"regime={values['regime']} at d_m={d_m}, d_n={d_n}"
        if values["selected"] != _expected_selection(d_m, d_n):
            return f"selected={values['selected']} at d_m={d_m}, d_n={d_n}"
        return None
    return check


def _solve_command(kind: str, nats: float, d_m: float, d_n: float, h_m_sq: float, h_n_sq: float,
                   config_path: str) -> Command:
    flags = ["--n", _r(nats), "--dm", _r(d_m), "--dn", _r(d_n),
             "--hm2", _r(h_m_sq), "--hn2", _r(h_n_sq)]
    if kind == "config":
        # The file holds another d_n and gain; the flags must win.
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"n": nats, "dm": d_m, "dn": 3.0 * d_n,
                       "hm2": h_m_sq, "hn2": 2.0 * h_n_sq}, fh)
        argv = ["solve", "--config", config_path, "--dn", _r(d_n), "--hn2", _r(h_n_sq)]
        return Command(argv, 1, _solve_check(0, d_m, d_n, h_n_sq))
    if kind == "bad_config":
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"n": "many", "dm": d_m, "dn": d_n}, fh)
        return Command(["solve", "--config", config_path], 1, _solve_check(1, None, None))
    if kind == "missing":
        return Command(["solve"] + flags[:4], 1, _solve_check(1, None, None))
    if kind in ("neg_n", "order"):
        return Command(["solve"] + flags, 1, _solve_check(1, None, None))
    return Command(["solve"] + flags, 1, _solve_check(0, d_m, d_n))


def solve_stream(seed: int, workdir: str):
    rng = _rng(seed, "solve")
    config_paths = [os.path.join(workdir, f"solve-config-{i}.json") for i in (0, 1)]
    while True:
        for kind in rng.permutation(SOLVE_BLOCK):
            nats = float(rng.uniform(1.0, 40.0))
            d_m = float(rng.uniform(1.0, 50.0))
            h_m_sq, h_n_sq = (float(g) for g in rng.uniform(0.1, 10.0, size=2))
            if kind == "degenerate":
                d_n = d_m
            elif kind == "boundary":
                d_n = 2.0 * d_m
            elif kind == "oma":
                d_n = d_m * float(rng.uniform(2.0 + 1e-6, 3.0))
            elif kind == "order":
                d_n = d_m * float(rng.uniform(0.5, 1.0 - 1e-6))
            elif kind == "saturated":
                # nats / d_m > 350: the plain-domain exponents overflow to inf.
                d_m = float(rng.uniform(1.0, 2.0))
                nats = d_m * float(rng.uniform(360.0, 650.0))
                d_n = d_m * float(rng.uniform(1.0, 3.0))
            else:
                d_n = d_m * float(rng.uniform(1.0 + 1e-6, 2.0 - 1e-6))
            if kind == "neg_n":
                nats = -nats
            first, twin = (_solve_command(kind, n, d_m, d_n, h_m_sq, h_n_sq, path)
                           for n, path in zip((nats, nats * TWIN_SCALE), config_paths))
            yield first._replace(twin=twin)


def input_sizes(workload: str) -> dict[str, int]:
    """The fixed per-command input sizes of a workload."""
    return {
        "sweep": {"rows_per_command": SWEEP_STEPS},
        "verify": {"scenarios_per_command": VERIFY_COUNT},
        "surface": {"samples_per_command": SURFACE_RESOLUTION**2 + 1},
        "solve": {"commands_per_block": len(SOLVE_BLOCK), "invalid_per_block": len(SOLVE_INVALID)},
    }[workload]


def stream(workload: str, seed: int, model, workdir: str):
    """The endless command stream of a workload; ``model`` is ``noma_mec.model``."""
    if workload == "sweep":
        return sweep_stream(seed, model)
    if workload == "solve":
        return solve_stream(seed, workdir)
    return {"verify": verify_stream, "surface": surface_stream}[workload](seed)
