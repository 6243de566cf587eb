"""Command-line front end for the experiment runners.

Subcommands map one-to-one onto the experiment edges (``edge-left``,
``edge-right``, ``edge-bottom``, ``fidi``, ``diagnostics``) plus ``all``.
Each run writes a CSV row dump and/or a JSON summary atomically (temp file
+ rename) into the output directory, prints one line per verdict, and exits
0 when every verdict passed, 2 on a verdict failure, and 1 on a usage,
configuration, run (a run that cannot complete) or output error.  Errors
are mirrored to stderr as one JSON object per line so callers never have
to scrape prose.

Configuration file (INI syntax, all sections optional)::

    [edge]
    name = right            ; must match the subcommand
    r = 0, 1                ; trim depths
    levels = 1.0, 2.0       ; edge-right joint levels, one per lambda, in any order

    [tail]
    family = log            ; stable(a) | rational(a) | const(c,a) | log | logpow(p<=100)

    [grids]
    t = 1e-2, 1e-4, 1e-6, 1e-8
    lambda = 0.5, 1.0
    alpha = 0.3, 0.5, 0.8

    [run]
    seed = 20260815
    replicates = 10000
    seed_blocks = 5
    n_terms = 1000
    jobs = 1
    format = both           ; csv | json | both
    output = .
    plot = false

``cauchy`` is an alias for ``stable``.  Edge-left builds the family at
each value of the alpha grid, so ``stable``, ``cauchy``, ``rational`` and
``const(c)`` may leave out the index, and a written index is superseded
by the grid's.  Edge-right needs a zero-index family (``log`` or
``logpow(p)``).  The other edges run a fixed family and reject any
other: edge-bottom and fidi ``cauchy``, diagnostics ``log``.

Edge-right checks the joint law of its levels for every ``r`` of the
trim grid; the levels must be positive and finite but need not be
monotone at any ``r``.  Unknown sections or keys are rejected.
Command-line flags override config values; the ``SUBORTRIM_SEED``
environment variable is the lowest-priority seed source.  ``--jobs``
only caps worker processes — reports are byte identical for any value.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import re
import sys
import tempfile
from typing import Callable

from .experiments import (
    DEFAULT_MASTER_SEED,
    ExperimentConfig,
    ExperimentReport,
    PlotSlice,
    run_experiment,
)

_EDGE_COMMANDS = {
    "edge-left": "left",
    "edge-right": "right",
    "edge-bottom": "bottom",
    "fidi": "fidi",
    "diagnostics": "diagnostics",
}

# Lighter out-of-the-box depth for the bottom edge: the route-agreement error
# at alpha = 0.01 needs a deep series before the 2% terminal check is fair.
_EDGE_DEFAULTS: dict[str, dict] = {
    "bottom": {"replicates": 200, "n_terms": 100_000},
}

_FORMATS = ("csv", "json", "both")
_SEED_ENV = "SUBORTRIM_SEED"


class CliError(Exception):
    """Usage, configuration, run or output failure; carries the machine-readable payload."""

    def __init__(self, kind: str, message: str, **extra):
        super().__init__(message)
        self.kind = kind
        self.extra = extra


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit on usage errors."""

    def error(self, message):  # noqa: A003 - argparse hook name
        raise CliError("usage", message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="subortrim",
        description="Seeded subordinator-limit experiments with CSV/JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, edge in _EDGE_COMMANDS.items():
        _add_run_flags(sub.add_parser(command, help=f"run the {edge} experiment"))
    _add_run_flags(sub.add_parser("all", help="run every experiment in sequence"))
    return parser


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file (see module docstring)")
    parser.add_argument("--seed", type=int, help="master seed (overrides config/env)")
    parser.add_argument("--replicates", type=int, help="samples per grid point")
    parser.add_argument("--jobs", type=int, help="worker process cap (result-neutral)")
    parser.add_argument("--output", help="existing directory for report files")
    parser.add_argument("--format", choices=_FORMATS, help="which report files to write")
    parser.add_argument(
        "--plot", action="store_true", default=None, help="also write one SVG per grid point"
    )


# --------------------------------------------------------------------------
# config file handling


def _load_config(path: str) -> dict[str, dict[str, str]]:
    # No header can name the empty section, so [DEFAULT] is a section like
    # any other (and unknown) instead of keys merged into every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise CliError("config", f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        line, column = _error_location(exc)
        raise CliError(
            "config",
            str(exc).replace("\n", " "),
            path=path,
            line=line,
            column=column,
        ) from exc
    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        keys = sorted(key for known, key in _CONFIG_KEYS if known == section)
        if not keys:
            raise CliError(
                "config",
                f"unknown config section [{section}] (expected "
                f"{sorted({known for known, _ in _CONFIG_KEYS})})",
                path=path,
            )
        for key in parser.options(section):
            if key not in keys:
                raise CliError(
                    "config",
                    f"unknown key {key!r} in section [{section}] (expected {keys})",
                    path=path,
                )
        sections[section] = dict(parser.items(section))
    return sections


def _error_location(exc: configparser.Error) -> tuple[int, int]:
    line = getattr(exc, "lineno", None)
    if line is None:
        errors = getattr(exc, "errors", None)
        line = errors[0][0] if errors else 1
    return int(line), 1


def _floats(text: str, label: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok)
    except ValueError as exc:
        raise CliError("config", f"{label} must be a comma list of numbers, got {text!r}") from exc
    if not values:
        raise CliError("config", f"{label} must not be empty")
    return values


def _ints(text: str, label: str) -> tuple[int, ...]:
    floats = _floats(text, label)
    if not all(f.is_integer() for f in floats):  # nan and inf are not
        raise CliError("config", f"{label} must be integers, got {text!r}")
    return tuple(int(f) for f in floats)


def _int(text: str, label: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise CliError("config", f"{label} must be an integer, got {text!r}") from exc


def _bool(text: str, label: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise CliError("config", f"{label} must be a boolean, got {text!r}") from None


def _text(text: str, label: str) -> str:
    return text.strip()


def _format(text: str, label: str) -> str:
    fmt = text.strip().lower()
    if fmt not in _FORMATS:
        raise CliError("config", f"{label} must be one of {_FORMATS}, got {fmt!r}")
    return fmt


#: Every config key: (section, key) -> (``ExperimentConfig`` field, parser).
#: ``[edge] name`` must match the command, and ``[run] format`` and
#: ``[run] output`` pick the report files and their directory; none of the
#: three reaches the config.  A config with several bad values reports the
#: first in this order.
_CONFIG_KEYS: dict[tuple[str, str], tuple[str, Callable[[str, str], object]]] = {
    ("edge", "name"): ("edge", _text),
    ("edge", "r"): ("r_grid", _ints),
    ("edge", "levels"): ("level_grid", _floats),
    ("tail", "family"): ("tail", _text),
    ("grids", "t"): ("t_grid", _floats),
    ("grids", "lambda"): ("lambda_grid", _floats),
    ("grids", "alpha"): ("alpha_grid", _floats),
    ("run", "replicates"): ("replicates", _int),
    ("run", "seed_blocks"): ("seed_blocks", _int),
    ("run", "n_terms"): ("n_terms", _int),
    ("run", "jobs"): ("jobs", _int),
    ("run", "plot"): ("plot", _bool),
    ("run", "output"): ("output", _text),
    ("run", "seed"): ("master_seed", _int),
    ("run", "format"): ("format", _format),
}


def _effective_config(
    edge: str,
    sections: dict[str, dict[str, str]],
    args: argparse.Namespace,
    environ: dict[str, str],
) -> tuple[ExperimentConfig, str, str]:
    kwargs: dict = dict(_EDGE_DEFAULTS.get(edge, {}))
    for (section, key), (name, parse) in _CONFIG_KEYS.items():
        text = sections.get(section, {}).get(key)
        if text is not None:
            kwargs[name] = parse(text, f"[{section}] {key}")
    declared = kwargs.pop("edge", edge)
    if declared != edge:
        raise CliError(
            "config", f"config section [edge] names {declared!r} but the command runs {edge!r}"
        )
    # command-line flags override config values
    for flag in ("seed", "replicates", "jobs", "output", "plot", "format"):
        value = getattr(args, flag)
        if value is not None:
            kwargs[_CONFIG_KEYS["run", flag][0]] = value
    # seed priority: flag > config > environment > built-in default
    if "master_seed" not in kwargs and _SEED_ENV in environ:
        kwargs["master_seed"] = _int(environ[_SEED_ENV], _SEED_ENV)
    kwargs.setdefault("master_seed", DEFAULT_MASTER_SEED)
    fmt = kwargs.pop("format", "both")
    out_dir = kwargs.pop("output", None) or "."
    try:
        config = ExperimentConfig(edge=edge, **kwargs)
    except (TypeError, ValueError) as exc:
        raise CliError("config", str(exc)) from exc
    return config, fmt, out_dir


# --------------------------------------------------------------------------
# report writing


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    handle, temp_path = tempfile.mkstemp(dir=directory, prefix=".subortrim-", suffix=".part")
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_path)
        raise


def emit_plot(plot_slice: PlotSlice) -> str:
    """Render one report slice as a deterministic 640x480 SVG document.

    The empirical step CDF of the slice samples is overlaid on the analytic
    curve (when the slice carries one).  Output depends only on the slice
    contents: fixed canvas, fixed two-decimal coordinates, no timestamps or
    external assets.  An empty slice yields the bare labeled axes; a single
    sample yields one step.  The axis spans the finite values, and an
    infinite sample is drawn at the axis end.
    """
    width, height = 640, 480
    left, right, top, bottom = 62.0, 18.0, 20.0, 46.0
    xs = sorted(float(v) for v in plot_slice.samples)
    curve = [(float(x), float(y)) for x, y in zip(plot_slice.curve_x, plot_slice.curve_y)]
    span = [x for x in xs + [x for x, _ in curve] if math.isfinite(x)]
    if span:
        lo, hi = min(span), max(span)
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = 0.0, 1.0

    def px(value: float) -> str:
        value = min(max(value, lo), hi)  # an infinite value sits at the axis end
        return f"{left + (value - lo) / (hi - lo) * (width - left - right):.2f}"

    def py(prob: float) -> str:
        return f"{height - bottom - prob * (height - top - bottom):.2f}"

    x0, x1, y0, y1 = px(lo), px(hi), py(0.0), py(1.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{x0}" y="474" font-size="12" font-family="monospace">{lo:.6g}</text>',
        f'<text x="{x1}" y="474" font-size="12" font-family="monospace" '
        f'text-anchor="end">{hi:.6g}</text>',
        f'<text x="6" y="{y0}" font-size="12" font-family="monospace">0</text>',
        f'<text x="6" y="{y1}" font-size="12" font-family="monospace">1</text>',
        f'<text x="{(width + left - right) / 2:.2f}" y="474" font-size="13" '
        f'font-family="monospace" text-anchor="middle">value</text>',
        f'<text x="16" y="{(height - bottom + top) / 2:.2f}" font-size="13" '
        f'font-family="monospace" text-anchor="middle" '
        f'transform="rotate(-90 16 {(height - bottom + top) / 2:.2f})">probability</text>',
        f'<text x="{(width + left - right) / 2:.2f}" y="14" font-size="13" '
        f'font-family="monospace" text-anchor="middle">{plot_slice.name}</text>',
    ]
    if curve:
        points = " ".join(f"{px(x)},{py(y)}" for x, y in curve)
        parts.append(f'<polyline fill="none" stroke="#b03a2e" points="{points}"/>')
    if xs:
        n = len(xs)
        path = [f"M {px(xs[0])} {py(0.0)}"]
        for i, x in enumerate(xs):
            path.append(f"L {px(x)} {py(i / n)}")
            path.append(f"L {px(x)} {py((i + 1) / n)}")
        path.append(f"L {x1} {py(1.0)}")
        parts.append(f'<path fill="none" stroke="#1f4e9c" d="{" ".join(path)}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_reports(report: ExperimentReport, fmt: str, out_dir: str) -> list[str]:
    written = []
    base = os.path.join(out_dir, f"subortrim_{report.edge}")
    if fmt in ("csv", "both"):
        _atomic_write(base + ".csv", report.csv_text())
        written.append(base + ".csv")
    if fmt in ("json", "both"):
        _atomic_write(base + ".json", json.dumps(report.summary(), indent=2) + "\n")
        written.append(base + ".json")
    for plot_slice in report.plots:  # a report holds plots only when its config asks
        path = f"{base}_{plot_slice.name}.svg"
        _atomic_write(path, emit_plot(plot_slice))
        written.append(path)
    return written


# --------------------------------------------------------------------------
# dispatch


def _emit_error(err: CliError) -> None:
    payload = {"error": err.kind, "message": str(err)}
    payload.update(err.extra)
    print(json.dumps(payload), file=sys.stderr)


def _run_edge(
    edge: str,
    sections: dict[str, dict[str, str]],
    args: argparse.Namespace,
    environ: dict[str, str],
) -> bool:
    config, fmt, out_dir = _effective_config(edge, sections, args, environ)
    if not os.path.isdir(out_dir):
        raise CliError("output", f"output directory does not exist: {out_dir}")
    try:
        report = run_experiment(config)
    except (ArithmeticError, ValueError) as exc:
        raise CliError("run", str(exc), edge=edge) from exc
    for verdict in report.verdicts:
        flag = "PASS" if verdict.passed else "FAIL"
        print(f"[{flag}] {edge} {verdict.name}: {verdict.detail}")
    try:
        written = _write_reports(report, fmt, out_dir)
    except OSError as exc:
        raise CliError("output", f"cannot write reports: {exc}", edge=edge) from exc
    for path in written:
        print(f"wrote {path}")
    print(
        f"edge {edge}: {'PASS' if report.all_pass else 'FAIL'} "
        f"({len(report.rows)} rows, {len(report.verdicts)} verdicts, {report.total_ms} ms)"
    )
    return report.all_pass


def parse_and_dispatch(argv=None, environ=None) -> int:
    """Run the command line with explicit argv/env; returns the exit code."""
    environ = os.environ if environ is None else environ
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("usage", "missing subcommand")
        sections = _load_config(args.config) if args.config else {}
        if args.command == "all":
            edges = list(_EDGE_COMMANDS.values())
            for section in sections:
                if section != "run":
                    raise CliError(
                        "config",
                        f"section [{section}] is not allowed with 'all'; "
                        "only [run] applies across edges",
                    )
        else:
            edges = [_EDGE_COMMANDS[args.command]]
        all_pass = True
        for edge in edges:
            all_pass &= _run_edge(edge, sections, args, environ)
    except CliError as err:
        _emit_error(err)
        if err.kind == "usage":
            print(parser.format_usage(), end="", file=sys.stderr)
        return 1
    return 0 if all_pass else 2


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
