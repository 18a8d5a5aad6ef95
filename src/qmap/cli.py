"""Batch experiment command line: recover, phase, infodim, validate, project.

Runs are configured by JSON documents validated against the schemas shipped
in qmap/schemas (unknown keys are rejected), and results land in CSV or
JSON files whose bytes are fully determined by (config, seed), regardless
of --jobs.  Exit codes: 0 success, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

import jsonschema
from referencing import Registry, Resource

from . import experiments

CONFIG_ERROR = 2
RUNTIME_ERROR = 1


class ConfigError(Exception):
    pass


def _load_schema(name: str) -> dict:
    with resources.files("qmap.schemas").joinpath(f"{name}.schema.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


def _validator(name: str) -> jsonschema.Draft202012Validator:
    schema = _load_schema(name)
    base = _load_schema("recover")
    registry = Registry().with_resources(
        [
            ("qmap/recover.schema.json", Resource.from_contents(base)),
            (f"qmap/{name}.schema.json", Resource.from_contents(schema)),
        ]
    )
    return jsonschema.Draft202012Validator(schema, registry=registry)


def load_config(path: str, command: str, seed_override: int | None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if seed_override is not None:
        config["seed"] = seed_override
    errors = sorted(
        _validator(command).iter_errors(config), key=lambda e: list(e.absolute_path)
    )
    if errors:
        details = "; ".join(
            f"{'/'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
            for err in errors[:5]
        )
        raise ConfigError(f"{path}: config does not match the {command} schema: {details}")
    return config


def _default_out(command: str, fmt: str) -> str:
    return f"{command}_results.{fmt}"


def cmd_recover(config: dict, out: str, jobs: int) -> int:
    t0 = time.perf_counter()
    results = experiments.run_recover(config, jobs=jobs)
    rows = [r["row"] for r in results]
    experiments.write_csv(out, experiments.RECOVER_COLUMNS, rows, config)
    print(
        f"recover: {len(rows)} trials -> {out} "
        f"({1000 * (time.perf_counter() - t0):.0f} ms wall)",
        file=sys.stderr,
    )
    return 0


def cmd_phase(config: dict, out: str, jobs: int) -> int:
    rows = experiments.run_phase(config, jobs=jobs)
    experiments.write_csv(out, experiments.PHASE_COLUMNS, rows, config)
    print(f"phase: {len(rows)} cells -> {out}", file=sys.stderr)
    return 0


def cmd_infodim(config: dict, out: str, jobs: int) -> int:
    rows = experiments.run_infodim(config)
    experiments.write_csv(out, experiments.INFODIM_COLUMNS, rows, config)
    for row in rows:
        print(f"b={row['b']:>3}  H/b={row['ratio']!r}")
    if rows and rows[0]["spike_slab_limit"] != "":
        print(f"spike-slab limit p={rows[0]['spike_slab_limit']}")
    return 0


def cmd_validate(config: dict, out: str, jobs: int) -> int:
    report = experiments.run_validate(config)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"validate: ok={report['ok']} -> {out}", file=sys.stderr)
    return 0 if report["ok"] else 1


def cmd_project(config: dict, out: str, jobs: int) -> int:
    rows = experiments.run_project(config)
    experiments.write_csv(out, experiments.PROJECT_COLUMNS, rows, config)
    print(f"project: {len(rows)} coordinates -> {out}", file=sys.stderr)
    return 0


COMMANDS = {
    "recover": (cmd_recover, "csv"),
    "phase": (cmd_phase, "csv"),
    "infodim": (cmd_infodim, "csv"),
    "validate": (cmd_validate, "json"),
    "project": (cmd_project, "csv"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmap",
        description="Quantized-MAP recovery experiments and bound validators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default=None, help="output file path")
        cmd.add_argument(
            "--jobs", type=int, default=os.cpu_count() or 1,
            help="worker processes (default: available parallelism)",
        )
        cmd.add_argument(
            "--seed", type=int, default=None, help="override the config seed"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    runner, fmt = COMMANDS[args.command]
    try:
        config = load_config(args.config, args.command, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    out = args.out or _default_out(args.command, fmt)
    try:
        return runner(config, out, max(1, args.jobs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
