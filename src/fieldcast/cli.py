"""Command-line entry point bundling the scenarios as reproducible experiments.

Usage:
    fieldcast list
    fieldcast run <scenario> [--rows N --cols N --n N --spacing X --noise X
                              --radius X --dt X --duration X --seed N
                              --out trace.csv --frames dir --[no-]check
                              --[no-]wire-stats --config file ...scenario flags]

Every ``ScenarioConfig`` field but ``scenario`` is a flag (``--name-with-dashes``,
plus ``--no-name`` for a boolean) and a ``--config`` key.  ``--check`` runs the
scenario's built-in oracle and exits nonzero when any check fails.  ``--config``
reads flat ``key=value`` lines; explicit flags (``--no-check`` too) override it.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .errors import AggregateError
from .scenarios import SCENARIOS, ScenarioConfig


_BOOLS = {"1": True, "true": True, "yes": True, "on": True}
_BOOLS.update(dict.fromkeys(("0", "false", "no", "off"), False))


def _parse_bool(value: str) -> bool:
    try:
        return _BOOLS[value.lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLS)}, got {value!r}") from None


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}

# Config key -> value parser, one per field (annotations are strings here).
_CONFIG_KEYS = {
    f.name: _PARSERS[f.type.removesuffix(" | None")]
    for f in fields(ScenarioConfig)
    if f.name != "scenario"
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldcast", description="Aggregate-computing scenario runner"
    )
    parser.add_argument("--version", action="version", version=f"fieldcast {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="enumerate available scenarios")

    runner = commands.add_parser("run", help="execute one scenario")
    runner.add_argument("scenario", choices=sorted(SCENARIOS))
    runner.add_argument("--config", type=str, default=None, help="key=value config file")
    for name, parse in _CONFIG_KEYS.items():
        flag = f"--{name.replace('_', '-')}"
        if parse is _parse_bool:  # --name and --no-name, so either overrides a config file
            runner.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        else:
            runner.add_argument(flag, type=parse, default=None)
    return parser


_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_config_file(path: str) -> dict:
    """Flat ``key=value`` lines; blank lines and ``#`` comments are ignored.

    A ``#`` starts a comment at the start of a line or after whitespace, as
    ``configparser``'s inline comments do; elsewhere it is part of the value.
    """
    values = {}
    for line_number, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise AggregateError(f"{path}:{line_number}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key in _CONFIG_KEYS:
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError as error:
                raise AggregateError(f"{path}:{line_number}: {key}: {error}") from None
        else:
            raise AggregateError(f"{path}:{line_number}: unknown config key {key!r}")
    return values


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    """Defaults, then scenario defaults, then config file, then explicit flags."""
    merged: dict = dict(SCENARIOS[args.scenario].defaults)
    if args.config:
        merged.update(parse_config_file(args.config))
    for name in _CONFIG_KEYS:
        flag_value = getattr(args, name)
        if flag_value is not None:
            merged[name] = flag_value
    return ScenarioConfig(scenario=args.scenario).overridden(**merged)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:  # argparse handles --version/usage errors
        return int(exit_request.code or 0)

    if args.command == "list":
        for name, spec in SCENARIOS.items():
            print(f"{name:12s} {spec.description}")
        return 0

    try:
        config = resolve_config(args)
        result = SCENARIOS[args.scenario].run(config)
    except (AggregateError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    summary = (
        f"{config.scenario}: {len(result.results)} nodes, "
        f"{result.simulator.rounds_executed} rounds, seed {config.seed}"
    )
    if config.wire_stats:
        sim = result.simulator
        summary += f", {sim.wire_bytes} wire bytes in {sim.wire_exports} exports"
        summary += f" ({sim.inline_exports} inline)"
    print(summary)
    if config.out:
        print(f"trace written to {config.out}")
    if config.frames:
        print(f"frames written to {config.frames}")
    if config.check:
        for check in result.checks:
            print(str(check))
        if not result.ok:
            return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
