"""Command-line front end.

Subcommands: ``solve`` (one scenario, three-way comparison), ``sweep``
(deadline sweep to CSV), ``surface`` (power-plane sampling to CSV) and
``verify`` (randomized certification campaign). Each option is described
once, in ``_OPTIONS``; ``_COMMANDS`` says which options each subcommand
takes. Scenario options may also come from a JSON config file, whose keys are
the flag names: ``n, dm, dn, hm2, hn2`` at the top level, the ``sweep`` and
``surface`` options in a block of that name. A command's options are its
fixed defaults, overlaid by the file's values, overlaid by the flags given
(flags win). Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys

from ._version import __version__
from .closed_form import oma_power_m
from .experiments import (
    _fmt,
    deadline_sweep,
    energy_surface,
    render_campaign_summary,
    render_surface_csv,
    render_sweep_csv,
    verification_campaign,
)
from .model import EnergyReport, NomaMecError, StrategyKind, validate_scenario
from .strategy import select_strategy

# One row per option: (flag, block, type, fixed default, help). The flag is also the
# config-file key. Block "scenario" and "deadline" keys sit at the file's top level (a sweep
# takes no --dn: its --from and --to set d_n), "sweep" and "surface" keys in a block of that
# name; block None options are never read from a file. A default of None leaves the option
# out unless given: it is required, or its handler derives it from other options.
_OPTIONS = (
    ("n", "scenario", float, None, "task size in nats"),
    ("dm", "scenario", float, None, "user m's deadline (normalized time units)"),
    ("dn", "deadline", float, None, "user n's deadline (normalized time units)"),
    ("hm2", "scenario", float, 1.0, "user m's squared channel gain over noise"),
    ("hn2", "scenario", float, 1.0, "user n's squared channel gain over noise"),
    ("from", "sweep", float, None,
     "first deadline d_n of the sweep (normalized time units, default: dm)"),
    ("to", "sweep", float, None,
     "last deadline d_n of the sweep (normalized time units, default: 2*dm)"),
    ("steps", "sweep", int, 81, "number of sweep samples"),
    ("tn", "surface", float, None, "solo-extension length (normalized time units, default: dm/4)"),
    ("p1max", "surface", float, None,
     "upper edge of the shared-slot power axis (normalized power, default: twice the optimum;"
     " twice the pure-NOMA power when tn is at least dm)"),
    ("p2max", "surface", float, None,
     "upper edge of the solo-phase power axis (normalized power, default: twice the optimum)"),
    ("resolution", "surface", int, 200, "samples per axis"),
    ("seed", None, int, 42, "campaign seed"),
    ("count", None, int, 200, "number of random scenarios"),
)
_DEFAULTS = {flag: default for flag, _, _, default, _ in _OPTIONS if default is not None}


def _typed(key: str, value, kind: type):
    """``value`` as ``kind``; JSON integers count as numbers, booleans as neither. An integer
    past the float range reads as an infinity, as the same digits do on the command line."""
    accepted, noun = ((int, float), "a number") if kind is float else (int, "an integer")
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise NomaMecError(f'config key "{key}" must be {noun}, got {value!r}')
    try:
        return kind(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def load_scenario_file(path: str) -> dict:
    """The options a JSON scenario document sets, keyed by flag name.

    Flat keys ``n, dm, dn, hm2, hn2`` describe the scenario; optional
    ``sweep`` (``from, to, steps``) and ``surface`` (``tn, p1max, p2max,
    resolution``) objects carry subcommand options. Other keys are ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise NomaMecError(f"cannot read config file {path!r}: {exc}") from exc
    except ValueError as exc:   # bad JSON, bad UTF-8 or an integer too long to convert
        raise NomaMecError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise NomaMecError(f"config file {path!r} must hold a JSON object")

    values = {}
    for flag, block, kind, _, _ in _OPTIONS:
        if block is None:
            continue
        section = raw.get(block, {}) if block in ("sweep", "surface") else raw
        if not isinstance(section, dict):
            raise NomaMecError(f'"{block}" must be an object')
        if flag in section:
            values[flag] = _typed(flag, section[flag], kind)
    return values


def _required(options: dict, *keys: str) -> list[float]:
    for key in keys:
        if key not in options:
            raise NomaMecError(
                f'missing required parameter "{key}" (pass --{key} or put it in --config)')
    return [options[key] for key in keys]


def _scenario(options: dict):
    n, dm, dn = _required(options, "n", "dm", "dn")
    return validate_scenario(n, dm, dn, options["hm2"], options["hn2"])


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_solve(options: dict) -> int:
    scenario = _scenario(options)
    table = select_strategy(scenario)
    chosen = table.oma if table.selected is StrategyKind.OMA else table.hybrid
    lines = [
        f"# noma-mec {__version__} solve",
        f"nats={_fmt(scenario.nats)}",
        f"d_m={_fmt(scenario.d_m)}",
        f"d_n={_fmt(scenario.d_n)}",
        f"h_m_sq={_fmt(scenario.h_m_sq)}",
        f"h_n_sq={_fmt(scenario.h_n_sq)}",
        f"regime={table.regime.value}",
        f"selected={table.selected.value}",
        f"t_n_star={_fmt(table.t_star)}",
        f"p_n1_star={_fmt(table.p_n1_star)}",
        f"p_n2_star={_fmt(table.p_n2_star)}",
        f"energy={_fmt(chosen.energy)}",
        f"normalized_energy={_fmt(chosen.normalized_energy)}",
        f"oma_power_m={_fmt(oma_power_m(scenario))}",
        ",".join(EnergyReport._fields),
    ]
    lines += [",".join(map(_fmt, report)) for report in (table.hybrid, table.pure_noma, table.oma)]
    _emit("\n".join(lines) + "\n", options.get("out"))
    return 0


def _cmd_sweep(options: dict) -> int:
    n, dm = _required(options, "n", "dm")
    d_n_from, d_n_to = options.get("from", dm), options.get("to", 2.0 * dm)
    hm2, hn2 = options["hm2"], options["hn2"]
    rows = deadline_sweep(n, dm, d_n_from, d_n_to, options["steps"], hm2, hn2)
    _emit(render_sweep_csv(rows, n, dm, hm2, hn2), options.get("out"))
    return 0


def _cmd_surface(options: dict) -> int:
    _, dm = _required(options, "n", "dm")
    tn = options.get("tn", dm / 4.0)
    # The CSV prints no d_n: without --dn the scenario takes d_m, and energy_surface checks tn.
    scenario = _scenario({"dn": dm, **options})
    # A sum, not tn > d_n - d_m, which can round below a tiny tn whose dn was given as dm + tn.
    if "dn" in options and scenario.d_m + tn > scenario.d_n:
        raise NomaMecError(
            f"dm + tn must be at most dn, got {scenario.d_m!r} + {tn!r} > {scenario.d_n!r}")
    grid = energy_surface(
        scenario,
        tn,
        p1_max=options.get("p1max"),
        p2_max=options.get("p2max"),
        resolution=options["resolution"],
    )
    _emit(render_surface_csv(grid, scenario, tn), options.get("out"))
    return 0


def _cmd_verify(options: dict) -> int:
    summary = verification_campaign(options["seed"], options["count"])
    _emit(render_campaign_summary(summary), options.get("out"))
    return 0 if summary.passed else 2


# One row per subcommand: (name, help, option blocks it takes, handler). A command
# that takes the scenario options also takes --config; every command takes --out.
_COMMANDS = (
    ("solve", "solve one scenario and print the strategy comparison",
     ("scenario", "deadline"), _cmd_solve),
    ("sweep", "sweep user n's deadline and emit CSV", ("scenario", "sweep"), _cmd_sweep),
    ("surface", "sample the power-plane energy surface and emit CSV",
     ("scenario", "deadline", "surface"), _cmd_surface),
    ("verify", "run the randomized certification campaign", (None,), _cmd_verify),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-mec",
        description="Energy-optimal power and time allocation for two-user NOMA-assisted MEC offloading.",
    )
    parser.add_argument("--version", action="version", version=f"noma-mec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, blocks, handler in _COMMANDS:
        # An option that is not given stays out of the namespace.
        command = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag, block, kind, default, text in _OPTIONS:
            if block in blocks:
                if default is not None:
                    text = f"{text} (default: {default})"
                command.add_argument(f"--{flag}", type=kind, help=text)
        if "scenario" in blocks:
            command.add_argument("--config", help="JSON scenario file; flags override its values")
        command.add_argument("--out", help="write output to this path instead of stdout")
        command.set_defaults(handler=handler)
    return parser


# Building the parser costs more than a whole solve; parsing leaves it unchanged.
@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices   # the subcommand parsers, by name


# glibc maps a block above its mmap threshold on its own and, once such a block is freed,
# raises that threshold to its size (32 MiB at most) and the trim threshold to twice that.
# Whether a later multi-megabyte output reuses heap or takes fresh pages then depends on
# the order of earlier output sizes (the same surface commands peaked 2.5 MB apart in one
# process); thresholds fixed at that ceiling do not drift.
@functools.cache
def _pin_malloc_thresholds() -> None:
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run(argv: list[str]) -> int:
    """Parse with the process's one parser, built on the first call (``build_parser()`` builds
    a fresh one to extend), and dispatch; returns the process exit code instead of exiting.
    A subcommand's own parser reads its flags; any other argv, or one it leaves unread, goes
    through the top-level parser. The first call also fixes glibc's malloc thresholds."""
    _pin_malloc_thresholds()
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    try:
        given, unread = command.parse_known_args(argv[1:]) if command else (None, True)
        given = vars(parser.parse_args(argv) if unread else given)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for bad flags; bad input is 1 here.
        return 0 if exc.code == 0 else 1
    try:
        config = given.pop("config", None)
        file_values = load_scenario_file(config) if config else {}
        return given.pop("handler")({**_DEFAULTS, **file_values, **given})
    except (NomaMecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
