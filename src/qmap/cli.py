"""Batch experiment command line: recover, phase, infodim, validate, project.

Runs are configured by JSON documents checked against the schemas shipped
in qmap/schemas by a small in-package checker of the draft 2020-12 keywords
those schemas use (unknown keys are rejected; a schema keyword outside that
set raises when its schema loads), and results land in CSV or JSON files
whose bytes are fully determined by (config, seed), regardless of --jobs.
Exit codes: 0 success, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
import time
from importlib import resources

from . import experiments

CONFIG_ERROR = 2
RUNTIME_ERROR = 1


class ConfigError(Exception):
    pass


# The schema checker.  It implements the draft 2020-12 keywords below with
# jsonschema's semantics and message wording: 2.0 is an integer, a bool is
# neither an integer nor a number, numeric bounds apply to numbers only, and
# unevaluatedProperties counts the properties evaluated through properties
# and $ref (no schema puts it beside allOf or if/then).  Errors are (path,
# message) pairs in jsonschema's order.

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
# keyword -> (violated(value, bound), message verb)
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}
_LEAF_KEYWORDS = {"$schema", "$id", "title", "$ref", "required", "minItems", *_BOUNDS}


def _is_leaf(key: str, arg) -> bool:
    """Whether key: arg is a supported keyword that holds no subschema."""
    if key in ("additionalProperties", "unevaluatedProperties"):
        return arg is False
    if key == "type":
        return _TYPES.keys() >= set([arg] if isinstance(arg, str) else arg)
    if key in ("enum", "const"):  # membership by ==, which is exact for strings
        return all(isinstance(e, str) for e in (arg if key == "enum" else [arg]))
    return key in _LEAF_KEYWORDS


def _check_keywords(schema: dict) -> None:
    """Raise NotImplementedError on any keyword the checker does not implement."""
    for key, arg in schema.items():
        if key in ("properties", "$defs"):
            subschemas = list(arg.values())
        elif key == "allOf":
            subschemas = arg
        elif key in ("items", "propertyNames", "if", "then"):
            subschemas = [arg]
        elif _is_leaf(key, arg):
            continue
        else:
            raise NotImplementedError(f"schema keyword {key!r}: {arg!r} is not supported")
        for subschema in subschemas:
            _check_keywords(subschema)


@functools.lru_cache(maxsize=None)
def _load_schema(file_name: str) -> dict:
    with resources.files("qmap.schemas").joinpath(file_name).open(
        "r", encoding="utf-8"
    ) as fh:
        schema = json.load(fh)
    _check_keywords(schema)
    return schema


def _resolve(ref: str, doc: dict) -> tuple[dict, dict]:
    """The subschema a $ref names, and the document it lies in."""
    uri, _, pointer = ref.partition("#")
    if uri:
        doc = _load_schema(uri.rsplit("/", 1)[-1])
    target = doc
    for part in pointer.split("/")[1:]:
        target = target[part]
    return target, doc


def _unexpected(kind: str, keys) -> str:
    keys = sorted(keys)
    verb = "was" if len(keys) == 1 else "were"
    return f"{kind} properties are not allowed ({', '.join(map(repr, keys))} {verb} unexpected)"


def _errors(value, schema: dict, doc: dict, path: tuple = ()):
    """Yield (path, message) for every violation of schema by value."""
    is_object = isinstance(value, dict)
    for key, arg in schema.items():
        if key == "$ref":
            yield from _errors(value, *_resolve(arg, doc), path)
        elif key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_TYPES[t](value) for t in types):
                yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif key == "const":
            if value != arg:
                yield path, f"{arg!r} was expected"
        elif key in _BOUNDS:
            violated, verb = _BOUNDS[key]
            if _TYPES["number"](value) and violated(value, arg):
                yield path, f"{value!r} {verb} {arg!r}"
        elif key == "required" and is_object:
            for name in arg:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "properties" and is_object:
            for name, subschema in arg.items():
                if name in value:
                    yield from _errors(value[name], subschema, doc, path + (name,))
        elif key == "additionalProperties" and is_object:
            extras = value.keys() - schema.get("properties", {}).keys()
            if extras:
                yield path, _unexpected("Additional", extras)
        elif key == "unevaluatedProperties" and is_object:
            extras = value.keys() - _evaluated(value, schema, doc)
            if extras:
                yield path, _unexpected("Unevaluated", extras)
        elif key == "propertyNames" and is_object:
            for name in value:
                yield from _errors(name, arg, doc, path)
        elif key == "items" and isinstance(value, list):
            for index, item in enumerate(value):
                yield from _errors(item, arg, doc, path + (index,))
        elif key == "minItems" and isinstance(value, list):
            if len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "allOf":
            for subschema in arg:
                yield from _errors(value, subschema, doc, path)
        elif key == "if" and "then" in schema and _valid(value, arg, doc):
            yield from _errors(value, schema["then"], doc, path)


def _valid(value, schema: dict, doc: dict) -> bool:
    return next(_errors(value, schema, doc), None) is None


def _evaluated(value: dict, schema: dict, doc: dict) -> set:
    """The keys of value that schema evaluates, for unevaluatedProperties."""
    keys = value.keys() & schema.get("properties", {}).keys()
    if "$ref" in schema:
        keys |= _evaluated(value, *_resolve(schema["$ref"], doc))
    return keys


def _schema_errors(config, command: str) -> list[tuple[tuple, str]]:
    """(path, message) for every violation of the command's schema."""
    schema = _load_schema(f"{command}.schema.json")
    return list(_errors(config, schema, schema))


def _finite_float(text: str) -> float:
    number = float(text)
    if not math.isfinite(number):
        raise ConfigError(f"{text} is out of the range of a float")
    return number


def _reject_constant(name: str):
    raise ConfigError(f"{name} is not a JSON number")


def load_config(path: str, command: str, seed_override: int | None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text, parse_float=_finite_float, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if seed_override is not None and isinstance(config, dict):
        config["seed"] = seed_override
    errors = sorted(_schema_errors(config, command), key=lambda e: e[0])
    if errors:
        details = "; ".join(
            f"{'/'.join(str(p) for p in err_path) or '<root>'}: {message}"
            for err_path, message in errors[:5]
        )
        raise ConfigError(f"{path}: config does not match the {command} schema: {details}")
    return config


def cmd_recover(config: dict, out: str, jobs: int) -> int:
    t0 = time.perf_counter()
    rows = experiments.run_recover(config, jobs=jobs)
    experiments.write_csv(out, rows, config)
    print(
        f"recover: {len(rows)} trials -> {out} "
        f"({1000 * (time.perf_counter() - t0):.0f} ms wall)",
        file=sys.stderr,
    )
    return 0


def cmd_phase(config: dict, out: str, jobs: int) -> int:
    rows = experiments.run_phase(config, jobs=jobs)
    experiments.write_csv(out, rows, config)
    print(f"phase: {len(rows)} cells -> {out}", file=sys.stderr)
    return 0


def cmd_infodim(config: dict, out: str, jobs: int) -> int:
    rows = experiments.run_infodim(config)
    experiments.write_csv(out, rows, config)
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
    experiments.write_csv(out, rows, config)
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
        if name in ("recover", "phase", "validate"):
            cmd.add_argument("--seed", type=int, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    runner, fmt = COMMANDS[args.command]
    out = args.out or f"{args.command}_results.{fmt}"
    try:
        config = load_config(args.config, args.command, getattr(args, "seed", None))
        return runner(config, out, max(1, args.jobs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
