"""The benchmark's four workloads: fixed sizes, how to run them, how to check them.

Each workload reproduces one of the heaviest acceptance criteria at a size
that runs in about six seconds on one core (2-core Xeon VM, Python 3.11):
half of a ten-second size, so that a 30-second run of the benchmark holds
four or five samples and reports their median.  The three edge workloads go
through ``subortrim.cli.parse_and_dispatch`` with a generated INI file, the
way users run them; ``laplace-scalar`` calls the library directly.  The
master seed is the benchmark's ``--seed``; every other input is fixed here.

Functions of subortrim are looked up as module attributes at call time so
that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from statistics import median

#: The package's pilot-selected master seed, used when no seed is given.
DEFAULT_SEED = 20260815


@dataclass
class Outcome:
    """What one execution of a workload produced, and what is wrong with it.

    ``problems`` are integrity failures: the run raised, an output is
    malformed, or the benchmark's own recomputation disagrees with what the
    program reported.  ``verdict_failures`` are verdicts that the program
    itself reported as FAIL; they make the run a failed run but do not make
    its outputs wrong.
    """

    digest: str = ""
    problems: list[str] = field(default_factory=list)
    verdict_failures: list[str] = field(default_factory=list)
    bytes_written: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Poisson arrivals drawn per execution; ``arrivals_per_s`` divides this by ``wall_s``.
    arrivals: int
    #: CLI subcommand, or "" for a direct library call.
    command: str = ""
    #: INI body for the CLI workloads; the seed comes from ``--seed``.
    config: str = ""
    #: CSV data rows the CLI writes.
    rows: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Criterion 6 (rational part) at 2000 replicates x 1 seed block instead
        # of 10000 x 5.  The only workload dominated by levy.tail_inverse_log
        # (Newton + nudge), and the one with the largest working set (16 MB
        # matrices plus temporaries).  Known weakness: its
        # ks_trend_nonincreasing verdict allows an uptick of one KS grid step
        # (1/2000) while the KS noise at this size is about 0.02, so the
        # verdict fails at some master seeds (1, 4 and 5 among 1-8, e.g.
        # medians 0.0205 -> 0.0285 at seed 1; with 2 blocks it failed at 1, 4
        # and 7).  Such a run is reported as a failed run; the workload is
        # neither resized nor re-seeded to hide it.
        Workload(
            name="left-rational",
            why="edge-left on the rational tail: tail inversion (levy) dominates",
            arrivals=4_000_000,
            command="edge-left",
            config="""\
[edge]
name = left
r = 0
[tail]
family = rational
[grids]
t = 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6
lambda = 1.0
alpha = 0.5
[run]
replicates = 2000
seed_blocks = 1
n_terms = 1000
jobs = 1
""",
            rows=6,
        ),
        # Criterion 5 at 10 replicates of depth 1e6: limits' coupled samples on
        # deep arrays do the work and levy is never called, so any levy change
        # is predicted to leave it unchanged.
        Workload(
            name="bottom-deep",
            why="edge-bottom at depth 1e6: limits coupled samples on deep arrays, no levy",
            arrivals=10_000_000,
            command="edge-bottom",
            config="""\
[edge]
name = bottom
r = 0, 1, 2
[grids]
lambda = 1.0
[run]
replicates = 10
n_terms = 1000000
jobs = 1
""",
            rows=18,
        ),
        # Criterion 8 at 15 000 replicates: per-replicate seeds, streams and the
        # counting loop in experiments; bound by per-call overhead, tiny working set.
        Workload(
            name="fidi-mc",
            why="fidi Monte Carlo: per-call overhead of seeds, streams and counting loop",
            arrivals=15_000 * 128,
            command="fidi",
            config="""\
[edge]
name = fidi
[run]
replicates = 15000
jobs = 1
""",
            rows=24,
        ),
        # Criterion 3 at one twentieth of its size: the one-ladder-per-call scalar
        # path (ordered_jumps -> trimmed_value) that no edge runner takes.
        Workload(
            name="laplace-scalar",
            why="criterion 3 scalar path: 5000 single ladders through trimmed_value",
            arrivals=5000 * 1000,
        ),
    )
}

def digest_key(workload: Workload, seed: int) -> str:
    """Key under which a CSV digest is recorded: workload, seed and definition."""
    definition = hashlib.sha256(repr(workload).encode("utf-8")).hexdigest()[:8]
    return f"{workload.name}:{seed}:{definition}"


LAPLACE_LADDERS = 5000
LAPLACE_TERMS = 1000
LAPLACE_STREAM = 13  # criterion 3's stream tag under the master seed
LAPLACE_S = (0.5, 1.0, 2.0)
LAPLACE_MAX_SE = 4.0


def prepare(workload: Workload, out_dir: str) -> str:
    """Build the workload's config; returns the INI path ("" for library calls)."""
    if not workload.command:
        return ""
    path = os.path.join(out_dir, "workload.ini")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(workload.config)
    return path


def run(workload: Workload, seed: int, out_dir: str, ini: str) -> Outcome:
    """Execute the workload once and check its outputs."""
    if workload.command:
        return _run_edge(workload, seed, out_dir, ini)
    return _run_laplace(seed)


def _run_edge(workload: Workload, seed: int, out_dir: str, ini: str) -> Outcome:
    from subortrim import cli

    argv = [workload.command, "--config", ini, "--seed", str(seed), "--output", out_dir]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.parse_and_dispatch(argv, environ={})
    out = Outcome()
    base = os.path.join(out_dir, "subortrim_" + workload.command.removeprefix("edge-"))
    try:
        with open(base + ".json", encoding="utf-8") as handle:
            summary = json.load(handle)
        with open(base + ".csv", "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        out.problems.append(f"exit code {code}, report missing: {exc}")
        return out
    out.digest = hashlib.sha256(raw).hexdigest()
    out.bytes_written = sum(
        os.path.getsize(os.path.join(out_dir, f))
        for f in os.listdir(out_dir)
        if f.startswith("subortrim_")
    )
    verdicts = {v["name"]: v["pass"] for v in summary["verdicts"]}
    out.verdict_failures = [name for name, ok in verdicts.items() if not ok]
    if code != (2 if out.verdict_failures else 0):
        out.problems.append(f"exit code {code} with {len(out.verdict_failures)} failed verdicts")
    rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
    if len(rows) != workload.rows:
        out.problems.append(f"{len(rows)} CSV rows, expected {workload.rows}")
        return out
    out.problems.extend(_CHECKS[workload.name](rows, verdicts))
    return out


def _agree(verdicts: dict[str, bool], name: str, recomputed: bool) -> list[str]:
    if name not in verdicts:
        return [f"verdict {name!r} missing"]
    if verdicts[name] != recomputed:
        return [f"verdict {name!r} reports {verdicts[name]} but the CSV gives {recomputed}"]
    return []


def _check_left(rows: list[dict], verdicts: dict[str, bool]) -> list[str]:
    problems = []
    for row in rows:
        ks, p = float(row["ks_stat"]), float(row["p_value"])
        if not (0.0 <= ks <= 1.0 and 0.0 <= p <= 1.0):
            problems.append(f"KS row out of range: stat {ks}, p {p}")
    ts = list(dict.fromkeys(float(row["t"]) for row in rows))
    medians = [median(float(r["ks_stat"]) for r in rows if float(r["t"]) == t) for t in ts]
    n = int(rows[0]["n"])
    trend = all(b <= a + 1.0 / n for a, b in zip(medians, medians[1:]))
    return problems + _agree(verdicts, "ks_trend_nonincreasing a=0.5 r=0 lam=1", trend)


def _check_bottom(rows: list[dict], verdicts: dict[str, bool]) -> list[str]:
    problems = []
    for row in rows:
        if not (float(row["aux1"]) >= 0.0 and 0.0 <= float(row["aux2"]) <= 1.0):
            problems.append(f"bottom row out of range: {row}")
    for r in sorted({row["r"] for row in rows}):
        mine = [row for row in rows if row["r"] == r]
        last = min(mine, key=lambda row: float(row["alpha"]))
        problems += _agree(verdicts, f"terminal_2pct r={r} lam=1", float(last["aux2"]) >= 0.95)
    return problems


def _check_fidi(rows: list[dict], verdicts: dict[str, bool]) -> list[str]:
    from subortrim import limits

    problems = []
    for row in rows:
        query, rank, n = int(float(row["t"])), int(row["r"]), int(row["n"])
        analytic, mc = float(row["aux1"]), float(row["aux2"])
        if not (0.0 <= analytic <= 1.0 and 0.0 <= mc <= 1.0):
            problems.append(f"fidi query {query} rank {rank}: probability out of range")
            continue
        bound = 3.0 * math.sqrt(mc * (1.0 - mc) / n) + 1e-3
        problems += _agree(verdicts, f"fidi_query{query}_rank{rank}", abs(analytic - mc) <= bound)
        q = limits.FIDI_QUERY_GRID[query - 1]
        if len(q.lambdas) == 1:
            # One-point queries have the Poisson closed form of the r-th jump CDF.
            m = q.lambdas[0] / q.levels[0]
            exact = math.exp(-m) * (1.0 + m if rank == 2 else 1.0)
            if abs(analytic - exact) > 1e-12:
                problems.append(f"fidi query {query} rank {rank}: {analytic} != closed form {exact}")
    return problems


_CHECKS = {"left-rational": _check_left, "bottom-deep": _check_bottom, "fidi-mc": _check_fidi}


def _run_laplace(seed: int) -> Outcome:
    import numpy as np

    from subortrim import levy, pointproc, stats

    tail = levy.stable_tail(0.5)
    values = np.empty(LAPLACE_LADDERS)
    for i in range(LAPLACE_LADDERS):
        arr = pointproc.sample_arrivals(pointproc.derive_seed(seed, LAPLACE_STREAM, i), LAPLACE_TERMS)
        ladder = pointproc.ordered_jumps(tail, 1.0, arr)
        values[i] = pointproc.trimmed_value(ladder, 0, compensate=True).value
    out = Outcome(digest=hashlib.sha256(values.tobytes()).hexdigest())
    for s in LAPLACE_S:
        est = stats.empirical_laplace(values, s)
        target = math.exp(-math.gamma(0.5) * math.sqrt(s))
        gap = abs(est.mean - target) / est.standard_error
        if not gap <= LAPLACE_MAX_SE:
            out.problems.append(f"Laplace transform at s={s:g} is {gap:.2f} SE from exp(-sqrt(pi s))")
    return out
