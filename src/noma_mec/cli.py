"""Command-line front end.

Subcommands: ``solve`` (one scenario, three-way comparison), ``sweep`` (deadline sweep to
CSV), ``surface`` (power-plane sampling to CSV) and ``verify`` (randomized certification
campaign). Each option is described once, in ``_OPTIONS``; ``_COMMANDS`` says which options
each subcommand takes, and ``_flags`` turns both into the flags that argparse's parser and
the plain ``--flag value`` reader share. Scenario options may also come from a JSON config
file, whose keys are the flag names: ``n, dm, dn, hm2, hn2`` at the top level, the ``sweep``
and ``surface`` options in a block of that name. A command's options are its fixed defaults,
overlaid by the file's values, overlaid by the flags given (flags win). ``--out -`` writes to
stdout. Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import re
import sys

from ._version import __version__
from .closed_form import oma_power_m
from .experiments import (_fmt, _surface_pieces, _sweep_pieces, deadline_sweep, energy_surface,
                          render_campaign_summary, verification_campaign)
from .model import EnergyReport, NomaMecError, StrategyKind, _real, validate_scenario
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
    return _real(value) if kind is float else value


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


def _emit(pieces, out_path: str | None) -> None:
    """Write the text ``pieces`` in order, each as it comes. The first is taken before
    ``out_path`` is opened, so a refusal while rendering it leaves no file, nor truncates one."""
    pieces = iter(pieces)
    first = next(pieces)
    if out_path in (None, "-"):
        sys.stdout.write(first)
        sys.stdout.writelines(pieces)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(first)
            fh.writelines(pieces)


_SOLVE_COLUMNS = ",".join(EnergyReport._fields) + "\n"   # solve's column-header line


def _cmd_solve(options: dict) -> int:
    scenario = _scenario(options)
    table = select_strategy(scenario)
    # Every number printed is a Python float, whose repr is _fmt's text; _fmt reads the enum and
    # bool cells. A row's cells are formatted once, and the energy lines reuse the chosen row's.
    reports = table.hybrid, table.pure_noma, table.oma
    rows = [(_fmt(kind), repr(energy), repr(normalized), f"{phase1!r},{phase2!r},{_fmt(feasible)}")
            for kind, energy, normalized, phase1, phase2, feasible in reports]
    _, energy, normalized, _ = rows[2 if table.selected is StrategyKind.OMA else 0]
    _emit(["".join([
        f"# noma-mec {__version__} solve\n",
        *[f"{key}={value!r}\n" for key, value in vars(scenario).items()],
        f"regime={table.regime.value}\nselected={table.selected.value}\nt_n_star={table.t_star!r}\n"
        f"p_n1_star={table.p_n1_star!r}\np_n2_star={table.p_n2_star!r}\nenergy={energy}\n"
        f"normalized_energy={normalized}\noma_power_m={oma_power_m(scenario)!r}\n{_SOLVE_COLUMNS}",
        *[",".join(row) + "\n" for row in rows]])], options.get("out"))
    return 0


def _cmd_sweep(options: dict) -> int:
    n, dm = _required(options, "n", "dm")
    d_n_from, d_n_to = options.get("from", dm), options.get("to", 2.0 * dm)
    hm2, hn2 = options["hm2"], options["hn2"]
    rows = deadline_sweep(n, dm, d_n_from, d_n_to, options["steps"], hm2, hn2)
    _emit(_sweep_pieces(rows), options.get("out"))
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
    grid = energy_surface(scenario, tn, p1_max=options.get("p1max"), p2_max=options.get("p2max"),
                          resolution=options["resolution"])
    _emit(_surface_pieces(grid), options.get("out"))
    return 0


def _cmd_verify(options: dict) -> int:
    summary = verification_campaign(options["seed"], options["count"])
    _emit([render_campaign_summary(summary)], options.get("out"))
    return 0 if summary.passed else 2


# One row per subcommand: (name, help, option blocks it takes, handler).
_COMMANDS = (
    ("solve", "solve one scenario and print the strategy comparison",
     ("scenario", "deadline"), _cmd_solve),
    ("sweep", "sweep user n's deadline and emit CSV", ("scenario", "sweep"), _cmd_sweep),
    ("surface", "sample the power-plane energy surface and emit CSV",
     ("scenario", "deadline", "surface"), _cmd_surface),
    ("verify", "run the randomized certification campaign", (None,), _cmd_verify),
)


def _flags(blocks: tuple) -> list[tuple[str, type, str]]:
    """A subcommand's ``(flag, type, help)`` rows in ``--help`` order: the options of its
    blocks, ``--config`` where it takes the scenario block, and ``--out``."""
    flags = [(f"--{flag}", kind, text if default is None else f"{text} (default: {default})")
             for flag, block, kind, default, text in _OPTIONS if block in blocks]
    if "scenario" in blocks:
        flags.append(("--config", str, "JSON scenario file; flags override its values"))
    return flags + [("--out", str, 'write output to this path instead of stdout ("-" is stdout)')]


# Each subcommand's handler and its flags' types, by option string: all the plain route reads.
_PLAIN = {name: (handler, {flag: kind for flag, kind, _ in _flags(blocks)})
          for name, _, blocks, handler in _COMMANDS}
# argparse's own negative-number test (its _negative_number_matcher on Python 3.10 and 3.11;
# later versions match more): argparse reads a match as a value, so the plain route may too.
_negative = re.compile(r"-\d+|-\d*\.\d+").fullmatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-mec",
        description="Energy-optimal power and time allocation for two-user NOMA-assisted MEC offloading.",
    )
    parser.add_argument("--version", action="version", version=f"noma-mec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, blocks, _ in _COMMANDS:
        # An option that is not given stays out of the namespace.
        command = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag, kind, text in _flags(blocks):
            command.add_argument(flag, type=kind, help=text)
    return parser


# Building the parser costs more than a whole solve; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def _read_plain(argv: list[str]) -> dict | None:
    """``vars(parse_args(argv))`` for an argv that is a subcommand and exact ``--flag value``
    pairs of its flags, read from ``_PLAIN``. None, for argparse to read, for any other argv, a
    value its type refuses, and a value that starts with ``-`` but is no ``_negative`` number."""
    plain = _PLAIN.get(argv[0]) if len(argv) % 2 else None
    if plain is None:
        return None
    given = {"command": argv[0]}
    for flag, value in zip(argv[1::2], argv[2::2]):
        kind = plain[1].get(flag)
        if kind is None or value.startswith("-") and not _negative(value):
            return None
        try:
            given[flag[2:]] = kind(value)
        except ValueError:
            return None
    return given


# glibc maps a block above its mmap threshold on its own and, once such a block is freed,
# raises that threshold to its size (32 MiB at most) and the trim threshold to twice that.
# Whether a caller's in-memory copy of a later multi-megabyte output (the CLI streams its
# CSV, a caller's io.StringIO still grows to the whole text) reuses heap or takes fresh
# pages then depends on the order of earlier output sizes (the same surface commands
# peaked 2.5 MB apart in one process); thresholds fixed at that ceiling do not drift.
@functools.cache
def _pin_malloc_thresholds() -> None:
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code instead of exiting. An argv of one
    subcommand and exact ``--flag value`` pairs (a value may be a negative number, ``-15``) is
    read from the option table alone; any other argv, and a value that fails its type or starts
    with ``-`` and is no such number, goes through argparse, with the process's one parser built
    on first need (``build_parser()`` builds a fresh one to extend). The first call also fixes
    glibc's malloc thresholds."""
    _pin_malloc_thresholds()
    given = _read_plain(argv)
    if given is None:
        try:
            given = vars(_parser().parse_args(argv))
        except SystemExit as exc:
            # argparse exits 0 for --help/--version and 2 for bad flags; bad input is 1 here.
            return 0 if exc.code == 0 else 1
    try:
        config = given.pop("config", None)
        file_values = load_scenario_file(config) if config else {}
        return _PLAIN[given.pop("command")][0]({**_DEFAULTS, **file_values, **given})
    except (NomaMecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
