"""Command-line front end.

Subcommands: ``solve`` (one scenario, three-way comparison), ``sweep``
(deadline sweep to CSV), ``surface`` (power-plane sampling to CSV) and
``verify`` (randomized certification campaign). Scenario parameters may come
from flags or from a JSON config file (flags win). Exit codes: 0 success,
1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from ._version import __version__
from .closed_form import oma_power_m
from .errors import FileUnreadable, MissingKey, NomaMecError, TypeMismatch
from .experiments import (
    _fmt,
    deadline_sweep,
    render_campaign_summary,
    render_surface_csv,
    render_sweep_csv,
    verification_campaign,
)
from .model import validate_scenario
from .oracle import energy_surface
from .strategy import select_strategy


@dataclass
class CliConfig:
    """Merged scenario and subcommand options, named as the flags' dests.

    None means 'not provided' for the options without a fixed default.
    """

    n: float | None = None
    dm: float | None = None
    dn: float | None = None
    hm2: float = 1.0
    hn2: float = 1.0
    sweep_from: float | None = None
    sweep_to: float | None = None
    steps: int = 81
    tn: float | None = None
    p1max: float | None = None
    p2max: float | None = None
    resolution: int = 200
    tol: float = 1e-10
    seed: int = 42
    count: int = 200


# Config-file keys: (block, JSON key, CliConfig field, type); block None is the top level.
_CONFIG_KEYS = (
    (None, "n", "n", float),
    (None, "dm", "dm", float),
    (None, "dn", "dn", float),
    (None, "hm2", "hm2", float),
    (None, "hn2", "hn2", float),
    ("sweep", "from", "sweep_from", float),
    ("sweep", "to", "sweep_to", float),
    ("sweep", "steps", "steps", int),
    ("surface", "tn", "tn", float),
    ("surface", "p1max", "p1max", float),
    ("surface", "p2max", "p2max", float),
    ("surface", "resolution", "resolution", int),
)


def _typed(key: str, value, kind: type):
    """``value`` as ``kind``; JSON integers count as numbers, booleans as neither."""
    accepted, noun = ((int, float), "a number") if kind is float else (int, "an integer")
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise TypeMismatch(key, f'config key "{key}" must be {noun}, got {value!r}')
    return kind(value)


def load_scenario_file(path: str) -> CliConfig:
    """Read a JSON scenario document.

    Flat keys ``n, dm, dn, hm2, hn2`` describe the scenario; optional
    ``sweep`` (``from, to, steps``) and ``surface`` (``tn, p1max, p2max,
    resolution``) objects carry subcommand options.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise FileUnreadable(path, f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileUnreadable(path, f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FileUnreadable(path, f"config file {path!r} must hold a JSON object")

    config = CliConfig()
    for block, key, field, kind in _CONFIG_KEYS:
        section = raw if block is None else raw.get(block, {})
        if not isinstance(section, dict):
            raise TypeMismatch(block, f'"{block}" must be an object')
        if key in section:
            setattr(config, field, _typed(key, section[key], kind))
    return config


def _merge(args: argparse.Namespace) -> CliConfig:
    """Overlay command-line flags on the config file; flags win."""
    config = load_scenario_file(args.config) if getattr(args, "config", None) else CliConfig()
    for field in fields(CliConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(config, field.name, value)
    return config


def _required(config: CliConfig, *keys: str) -> list[float]:
    values = []
    for key in keys:
        value = getattr(config, key)
        if value is None:
            raise MissingKey(
                key, f'missing required parameter "{key}" (pass --{key} or put it in --config)'
            )
        values.append(value)
    return values


def _scenario(config: CliConfig, dn_default: float | None = None):
    if config.dn is None:
        config.dn = dn_default
    n, dm, dn = _required(config, "n", "dm", "dn")
    return validate_scenario(n, dm, dn, config.hm2, config.hn2)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _merge(args)
    scenario = _scenario(config)
    table = select_strategy(scenario)
    chosen = {
        table.hybrid.strategy: table.hybrid,
        table.pure_noma.strategy: table.pure_noma,
        table.oma.strategy: table.oma,
    }[table.selected]
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
        "strategy,energy,normalized_energy,phase1_energy,phase2_energy,feasible",
    ]
    for report in (table.hybrid, table.pure_noma, table.oma):
        lines.append(
            ",".join(
                _fmt(v)
                for v in (report.strategy, report.energy, report.normalized_energy,
                          report.phase1_energy, report.phase2_energy, report.feasible)
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _merge(args)
    n, dm = _required(config, "n", "dm")
    d_n_from = config.sweep_from if config.sweep_from is not None else dm
    d_n_to = config.sweep_to if config.sweep_to is not None else 2.0 * dm
    rows = deadline_sweep(n, dm, d_n_from, d_n_to, config.steps, config.hm2, config.hn2)
    _emit(render_sweep_csv(rows, n, dm, config.hm2, config.hn2), args.out)
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    config = _merge(args)
    n, dm = _required(config, "n", "dm")
    tn = config.tn if config.tn is not None else dm / 4.0
    scenario = _scenario(config, dn_default=dm + tn)
    grid = energy_surface(
        scenario,
        tn,
        p1_max=config.p1max,
        p2_max=config.p2max,
        resolution=config.resolution,
    )
    _emit(render_surface_csv(grid, scenario, tn), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _merge(args)
    summary = verification_campaign(config.seed, config.count, tol=config.tol)
    _emit(render_campaign_summary(summary), args.out)
    return 0 if summary.passed else 2


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=float, help="task size in nats")
    parser.add_argument("--dm", type=float, help="user m's deadline (normalized time units)")
    parser.add_argument("--dn", type=float, help="user n's deadline (normalized time units)")
    parser.add_argument("--hm2", type=float, help="user m's squared channel gain over noise (default 1)")
    parser.add_argument("--hn2", type=float, help="user n's squared channel gain over noise (default 1)")
    parser.add_argument("--config", help="JSON scenario file; flags override its values")
    parser.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-mec",
        description="Energy-optimal power and time allocation for two-user NOMA-assisted MEC offloading.",
    )
    parser.add_argument("--version", action="version", version=f"noma-mec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one scenario and print the strategy comparison")
    _add_scenario_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep user n's deadline and emit CSV")
    _add_scenario_flags(p_sweep)
    p_sweep.add_argument("--from", dest="sweep_from", type=float,
                         help="first deadline d_n of the sweep (normalized time units, default: dm)")
    p_sweep.add_argument("--to", dest="sweep_to", type=float,
                         help="last deadline d_n of the sweep (normalized time units, default: 2*dm)")
    p_sweep.add_argument("--steps", type=int, help="number of sweep samples (default: 81)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_surface = sub.add_parser("surface", help="sample the power-plane energy surface and emit CSV")
    _add_scenario_flags(p_surface)
    p_surface.add_argument("--tn", type=float,
                           help="solo-extension length (normalized time units, default: dm/4)")
    p_surface.add_argument("--p1max", type=float,
                           help="upper edge of the shared-slot power axis (normalized power, default: twice the optimum)")
    p_surface.add_argument("--p2max", type=float,
                           help="upper edge of the solo-phase power axis (normalized power, default: twice the optimum)")
    p_surface.add_argument("--resolution", type=int, help="samples per axis (default: 200)")
    p_surface.set_defaults(func=_cmd_surface)

    p_verify = sub.add_parser("verify", help="run the randomized certification campaign")
    p_verify.add_argument("--seed", type=int, help="campaign seed (default: 42)")
    p_verify.add_argument("--count", type=int, help="number of random scenarios (default: 200)")
    p_verify.add_argument("--tol", type=float, help="oracle bracket tolerance (default: 1e-10)")
    p_verify.add_argument("--out", help="write the summary to this path instead of stdout")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for bad flags; bad input is 1 here.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except NomaMecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
