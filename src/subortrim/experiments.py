"""Seeded experiment runners for the convergence checks and diagnostics.

``run_experiment`` is the one entry point: it builds the report, hands it
to the edge's runner, which fills in the rows, verdicts and plots, and
times the whole run.  The edges:

``edge-left``
    Small-horizon limit at positive tail index: trimmed reciprocal-rate
    statistics against trimmed-stable power references drawn on
    independent arrivals, plus an exact self-similarity regression for
    the pure power-law families.  One task per (alpha, block) sweeps its
    arrivals over the horizons for every (r, lambda).
``edge-right``
    Small-horizon limit at zero index: one-sample KS against the ranked
    reciprocal-tail jump laws, a joint fidi check along the restriction
    grid at every trim depth, and the trimmed-ratio trend.  One task per
    (r, block) sweeps its arrivals over the horizons for every lambda.
``edge-bottom``
    Index-to-zero coupling: per-seed relative error between the trimmed
    stable power and the ranked jump on shared randomness.
``fidi``
    The analytic fidi formulas against brute-force Monte Carlo.
``diagnostics``
    Tail-function property suites (inverse sandwich, power-ratio limit,
    slowly-varying bounds) and the trimmed-ratio trend study.

Randomness discipline: each report row carries a root seed derived from
``(master_seed, edge tag, block, combo index)``, where the tag is the
edge's entry in ``_EDGES`` (the one table of each edge's seed tag,
default tail, KS flag and runner) and the combo index is edge-left's
alpha index and edge-right's r index; replicate streams derive from that
root as ``derive_seed(root, stream, replicate)``, so a row can be
regenerated in isolation and results are independent of scheduling.  A
task takes its replicate range's seeds in one block call (``derive_seed``
with an index array), and each replicate draws its own series through
``iter_arrivals``, which hashes the PCG64 state words of each block of
seeds once, so that no row of any edge runs numpy's SeedSequence.  Rows
are merged in grid order and the CSV is byte-identical for any ``jobs``
value.  The ``ms_elapsed`` column is fixed at 0 to keep that guarantee;
wall time lives in the JSON summary.

One horizon sweep (``_z_sweep``) serves both edges and the diagnostics'
ratio trend.  It draws the replicates' streams in blocks of at most
``_BLOCK_BYTES`` per matrix (one row when a row alone is larger) and
inverts and reduces each block at every horizon before drawing the next,
so memory holds a few such blocks, not the whole (replicates x n_terms)
matrix, and does not grow with the replicates or the ladder depth.  It
fills a (horizons x slices x replicates) array of trimmed z-statistics,
slice ``k`` being the ``k``-th (r, lambda) pair in ``product(r_grid,
lambda_grid)`` order, plus a (horizons x replicates) array of trimmed
ratios on request.

Trend runs use the same arrivals at every horizon of the grid (coupled
comparison): the sampled vectors then converge pathwise as the
horizon shrinks, which turns distributional trends into near-deterministic
ones and makes the power-law self-similarity check exact.  At very small
horizons the statistic saturates in float precision (samples stop moving
at all), so trend verdicts ask for a nonincreasing profile plus a
terminal bound rather than a strict decrease.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from itertools import product
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from . import levy, limits, stats
from .levy import TailFunction
from .limits import FIDI_QUERY_GRID, FidiQuery
from .pointproc import (  # noqa: F401 - perfbench's tracer test rebinds sample_arrivals here
    derive_seed,
    iter_arrivals,
    sample_arrivals,
    trimmed_ratios,
    trimmed_z_rows,
)

__all__ = [
    "DEFAULT_MASTER_SEED",
    "CSV_HEADER",
    "ExperimentConfig",
    "ReportRow",
    "Verdict",
    "PlotSlice",
    "ExperimentReport",
    "run_experiment",
]

#: Pilot-selected default master seed; see README for the calibration note.
DEFAULT_MASTER_SEED = 20260815

CSV_HEADER = "edge,tail,alpha,t,lambda,r,n,ks_stat,p_value,aux1,aux2,seed,ms_elapsed"

_SAMPLE_STREAM = 0
_REFERENCE_STREAM = 1
_FIDI_DEPTH = 128
#: Jump ranks of the fidi edge's Monte Carlo check (two per query: 24 CSV rows).
_FIDI_RANKS = (1, 2)
#: Replicate rows per fidi count; fixed, so memory does not grow with the chunk.
_FIDI_BLOCK = 128
#: Bytes per block matrix of the horizon sweep of edge-left, edge-right and
#: the ratio trend: a block holds ``max(1, _BLOCK_BYTES // (8 * n_terms))``
#: replicate rows (131 of a 1000-term ladder, 6 of a 20 000-term one), so its
#: working set is the same whatever the replicate count and ladder depth, and
#: the CSV does not depend on the block.
_BLOCK_BYTES = 2**20
_PLOT_POINTS = 512
#: Edge-right's terminal KS-median floor, pilot-calibrated at ``_PILOT_ANCHOR_N``
#: replicates; for other counts the verdict rescales it by the 1/sqrt(n) KS rate.
_PILOT_KS_THRESHOLD = 0.015
_PILOT_ANCHOR_N = 10_000
#: Pathwise self-similarity tolerance per unit of 1 + |log t0| + |log t1|:
#: log J = -(log Gamma - log t) / alpha rounds to about eps * |log J| and z
#: carries alpha times that exponent error, so the drift grows like eps * |log t|.
#: Measured worst 1.6 eps per unit (alpha 0.01-0.8, r 0-2, t down to 1e-12).
_DRIFT_TOL = 16.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run; immutable and picklable."""

    edge: str
    tail: str = ""
    alpha_grid: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05, 0.02, 0.01)
    t_grid: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-8)
    lambda_grid: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    r_grid: tuple[int, ...] = (0, 1, 2)
    level_grid: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)
    replicates: int = 1000
    n_terms: int = 1000
    seed_blocks: int = 5
    master_seed: int = DEFAULT_MASTER_SEED
    jobs: int = 1
    plot: bool = False

    def __post_init__(self):
        if self.edge not in _EDGES:
            raise ValueError(f"unknown edge {self.edge!r}; expected one of {tuple(_EDGES)}")
        spec = _EDGES[self.edge]
        if not self.tail:
            object.__setattr__(self, "tail", spec.tail)
        elif not spec.ks and self.tail != spec.tail:
            fixed = spec.tail
            raise ValueError(f"edge {self.edge} runs the fixed {fixed!r} family, got {self.tail!r}")
        if any(not 0.0 < a < 1.0 for a in self.alpha_grid):
            raise ValueError("alpha_grid values must lie in (0, 1)")
        if any(not 0.0 < t < math.inf for t in self.t_grid):
            raise ValueError("t_grid values must be positive and finite")
        lams = self.lambda_grid
        if any(not 0.0 < v <= 1.0 for v in lams) or any(
            b <= a for a, b in zip(lams, lams[1:])
        ):
            raise ValueError("lambda_grid must be strictly increasing within (0, 1]")
        for name in ("replicates", "n_terms", "seed_blocks", "jobs", "master_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        r_grid = tuple(_integer("r_grid entry", r) for r in self.r_grid)
        object.__setattr__(self, "r_grid", r_grid)
        if any(r < 0 for r in r_grid):
            raise ValueError("r_grid values must be nonnegative")
        for name in ("alpha_grid", "t_grid", "lambda_grid", "r_grid"):
            values = getattr(self, name)  # a repeat would repeat verdict names
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} must be nonempty and without repeats")
        floor = 1000 if spec.ks else 1
        if self.replicates < floor:
            raise ValueError(f"edge {self.edge} needs replicates >= {floor}")
        for name, least in (("n_terms", 1000), ("seed_blocks", 1), ("jobs", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if max(r_grid) >= self.n_terms:  # a trim leaves no jump to sum
            raise ValueError(f"r_grid values must be below n_terms = {self.n_terms}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.edge == "right":
            if len(self.level_grid) != len(self.lambda_grid):
                raise ValueError("level_grid must match lambda_grid in length")
            if any(not y > 0.0 for y in self.level_grid):  # NaN fails too
                raise ValueError("level_grid values must be positive")
            levy.parse_tail(self.tail, 0.0)  # edge-right needs a zero-index family
        alphas = self.alpha_grid
        if self.edge == "bottom" and any(b >= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("edge-bottom expects a strictly decreasing alpha_grid")
        if self.edge == "left":
            for a in self.alpha_grid:
                if levy.parse_tail(self.tail, a).alpha <= 0.0:
                    raise ValueError("edge-left needs a positive-index tail family")

    def echo(self) -> dict:
        """Effective config as plain JSON-ready data."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def _integer(name: str, value) -> int:
    """``value`` as a Python int: ints and numpy ints pass, bools and floats raise."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ReportRow:
    """One CSV row; the seed column is the root of the row's streams."""

    edge: str
    tail: str
    alpha: float
    t: float
    lam: float
    r: int
    n: int
    ks_stat: float
    p_value: float
    aux1: float
    aux2: float
    seed: int

    def csv_line(self) -> str:
        vals = (
            self.edge,
            self.tail,
            repr(float(self.alpha)),
            repr(float(self.t)),
            repr(float(self.lam)),
            str(int(self.r)),
            str(int(self.n)),
            repr(float(self.ks_stat)),
            repr(float(self.p_value)),
            repr(float(self.aux1)),
            repr(float(self.aux2)),
            str(int(self.seed)),
            "0",
        )
        return ",".join(vals)


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PlotSlice:
    """Data behind one CDF-overlay plot: a sample and an analytic curve."""

    name: str
    samples: tuple[float, ...]
    curve_x: tuple[float, ...]
    curve_y: tuple[float, ...]


@dataclass
class ExperimentReport:
    """Rows in deterministic grid order plus summary verdicts."""

    edge: str
    config: ExperimentConfig
    rows: list[ReportRow] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    plots: list[PlotSlice] = field(default_factory=list)
    total_ms: int = 0

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(row.csv_line() for row in self.rows)
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "edge": self.edge,
            "config": self.config.echo(),
            "verdicts": [
                {"name": v.name, "pass": v.passed, "detail": v.detail}
                for v in self.verdicts
            ],
            "total_ms": self.total_ms,
        }


# --------------------------------------------------------------------------
# seed plumbing and arrival matrices


def _edge_root(cfg: ExperimentConfig, *path: int) -> int:
    """The seed of ``path`` (``(block, combo)`` for a KS-edge row) under the edge's tag."""
    return derive_seed(cfg.master_seed, _EDGES[cfg.edge].tag, *path)


def _stream_matrix(seeds: list[int], n_terms: int):
    """Stack the arrival series of ``seeds`` into (len(seeds), n_terms) matrices."""
    arrivals = np.empty((len(seeds), n_terms))
    marks = np.empty_like(arrivals)
    for i, series in enumerate(iter_arrivals(seeds, n_terms)):
        arrivals[i] = series.arrivals
        marks[i] = series.marks
    return arrivals, marks


def _z_sweep(tail: TailFunction, seeds, n_terms: int, t_grid, slices, ratio_r=None):
    """Trimmed z-statistics of the streams of ``seeds`` at every horizon of ``t_grid``.

    Returns ``(z, w)``: ``z[j, k]`` holds the replicates' trimmed
    z-statistics at ``t_grid[j]`` for slice ``slices[k] = (r, lam)``, and
    ``w[j]`` their trimmed ratios at trim ``ratio_r`` (``w`` is ``None``
    without one).  The streams are drawn in blocks of at most ``_BLOCK_BYTES``
    per matrix, or one row, and each block is inverted and reduced at every
    horizon before the next is drawn.  Each horizon's ladder is freed before
    the next is built, so an inversion runs with four block matrices alive:
    the arrivals, the marks, the rates and its ladder.  Drawing, inversion
    and the reductions are per row, so the block does not reach the bits.
    """
    replicates = len(seeds)
    z = np.empty((len(t_grid), len(slices), replicates))
    w = None if ratio_r is None else np.empty((len(t_grid), replicates))
    step = max(1, _BLOCK_BYTES // (8 * n_terms))
    for lo in range(0, replicates, step):
        rows = slice(lo, lo + step)
        arrivals, marks = _stream_matrix(seeds[rows], n_terms)
        # A ladder is freed only once the next block matrix is live: the last
        # block's once this block is drawn, and each horizon's once the next
        # horizon's rates are built, so the next ladder reuses its memory.
        # Freed right after the reductions instead, the ladder joined the free
        # heap top, glibc's malloc returned that to the OS, and every new
        # ladder faulted it in again (left-rational: 6-9x the minor page
        # faults, about 10% more time).
        log_j = None
        for j, t in enumerate(t_grid):
            with np.errstate(over="ignore"):  # Gamma / t = inf is a zero jump
                rates = arrivals / t
            log_j = None
            log_j = np.asarray(levy.tail_inverse_log(tail, rates))
            del rates
            for k, (r, lam) in enumerate(slices):
                z[j, k, rows] = trimmed_z_rows(tail, t, log_j, marks, lam, r, log_j[:, -1])
            if w is not None:
                w[j, rows] = trimmed_ratios(log_j, ratio_r)
    return z, w


def _replicate_seeds(root: int, stream: int, count: int) -> list[int]:
    return derive_seed(root, stream, np.arange(count))


def _replicate_chunks(cfg: ExperimentConfig) -> list[tuple]:
    """Pool tasks ``(cfg, lo, hi)`` over replicate ranges in order, about four per worker."""
    chunk = math.ceil(cfg.replicates / (4 * cfg.jobs))
    return [
        (cfg, lo, min(lo + chunk, cfg.replicates)) for lo in range(0, cfg.replicates, chunk)
    ]


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def _downsample(values, cap: int = _PLOT_POINTS) -> tuple[float, ...]:
    v = np.sort(np.asarray(values, dtype=float))
    if v.size > cap:
        idx = np.linspace(0, v.size - 1, cap).round().astype(int)
        v = v[idx]
    return tuple(float(x) for x in v)


def _run_pool(cfg: ExperimentConfig, worker, tasks: list) -> list:
    """Map tasks to results, preserving task order, honouring cfg.jobs."""
    if cfg.jobs == 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it

    with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(tasks))) as pool:
        return list(pool.map(worker, tasks))


def _weakly_nonincreasing(seq, tol: float = 0.0) -> bool:
    """Nonincreasing allowing upticks below ``tol``.

    KS statistics live on a 1/n grid and coupled samples freeze beyond
    float resolution, so trend verdicts treat a single-grid-step uptick
    as noise rather than evidence against the trend.
    """
    return all(b <= a + tol for a, b in zip(seq, seq[1:]))


def _ks_trend(cfg: ExperimentConfig, label: str, rows: list) -> tuple[Verdict, list[float]]:
    """The KS-median trend verdict of one grid point, and its medians by decreasing t."""
    medians = [
        _median([row.ks_stat for row in rows if row.t == t])
        for t in sorted(cfg.t_grid, reverse=True)
    ]
    verdict = Verdict(
        name=f"ks_trend_nonincreasing {label}",
        passed=_weakly_nonincreasing(medians, tol=1.0 / cfg.replicates),
        detail="medians " + " ".join(f"{m:.6g}" for m in medians),
    )
    return verdict, medians


def _ratio_trend(medians: list[float]) -> Verdict:
    """The trimmed-ratio trend verdict on medians by decreasing t: down to 1."""
    return Verdict(
        name="ratio_trend_to_one",
        passed=_weakly_nonincreasing(medians) and medians[-1] < 1.0 + 1e-9,
        detail="medians " + " ".join(f"{m:.9g}" for m in medians),
    )


def _mc_agreement(name: str, analytic: float, mc: float, n: int) -> Verdict:
    """An analytic probability against its Monte Carlo estimate over ``n`` draws."""
    bound = 3.0 * stats.mc_standard_error(mc, n) + 1e-3
    return Verdict(
        name=name,
        passed=abs(analytic - mc) <= bound,
        detail=f"analytic {analytic:.6g} vs MC {mc:.6g} (bound {bound:.3g})",
    )


def _slice_tasks(cfg: ExperimentConfig, task, combos: int) -> list[list]:
    """Run ``task((cfg, combo, block))`` over the grid; results by combo, then block.

    A task returns its report rows as a list per slice first; see :func:`_slice_rows`.
    """
    blocks = cfg.seed_blocks
    tasks = [(cfg, combo, block) for combo in range(combos) for block in range(blocks)]
    results = _run_pool(cfg, task, tasks)
    return [results[lo : lo + blocks] for lo in range(0, len(results), blocks)]


def _slice_rows(blocks: list, k: int) -> list[ReportRow]:
    """The rows of slice ``k`` from each block's result, in block order."""
    return [row for res in blocks for row in res[0][k]]


# --------------------------------------------------------------------------
# edge-left


def _left_task(args):
    """One (alpha, block) slice: shared arrivals across every (r, lambda)."""
    cfg, alpha_idx, block = args
    tail = levy.parse_tail(cfg.tail, cfg.alpha_grid[alpha_idx])
    root = _edge_root(cfg, block, alpha_idx)
    slices = list(product(cfg.r_grid, cfg.lambda_grid))
    z_all, _ = _z_sweep(
        tail, _replicate_seeds(root, _SAMPLE_STREAM, cfg.replicates), cfg.n_terms,
        cfg.t_grid, slices,
    )
    # The reference is reduced series by series: one coupled call per
    # (replicate, lambda) serves every r.
    reference = np.empty((len(cfg.r_grid), len(cfg.lambda_grid), cfg.replicates))
    ref_seeds = _replicate_seeds(root, _REFERENCE_STREAM, cfg.replicates)
    for i, series in enumerate(iter_arrivals(ref_seeds, cfg.n_terms)):
        for lam_idx, lam in enumerate(cfg.lambda_grid):
            reference[:, lam_idx, i] = limits.trimmed_stable_power_sample(
                series, tail.alpha, cfg.r_grid, lam
            )
    reference = reference.reshape(len(slices), cfg.replicates)
    rows = [[] for _ in slices]
    for t, z in zip(cfg.t_grid, z_all):
        for k, (r, lam) in enumerate(slices):
            ks = stats.ks_two_sample(z[k], reference[k])
            rows[k].append(
                ReportRow(
                    edge="left",
                    tail=str(tail),
                    alpha=tail.alpha,
                    t=t,
                    lam=lam,
                    r=r,
                    n=cfg.replicates,
                    ks_stat=ks.statistic,
                    p_value=ks.p_value,
                    aux1=_median(z[k]),
                    aux2=_median(reference[k]),
                    seed=root,
                )
            )
    endpoints = (z_all[0], z_all[-1]) if block == 0 else None  # first and last horizon
    plots = []
    if cfg.plot and block == 0:
        for k, (r, lam) in enumerate(slices):
            ref_sorted = _downsample(reference[k])
            plots.append(
                PlotSlice(
                    name=f"left_a{tail.alpha:g}_r{r}_lam{lam:g}",
                    samples=_downsample(z_all[-1, k]),
                    curve_x=ref_sorted,
                    curve_y=tuple((i + 1) / len(ref_sorted) for i in range(len(ref_sorted))),
                )
            )
    return rows, endpoints, plots


def _run_left(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    """Positive-index small-horizon limit: trimmed statistics vs references."""
    by_alpha = _slice_tasks(cfg, _left_task, len(cfg.alpha_grid))
    pure_power = isinstance(levy.parse_tail(cfg.tail, cfg.alpha_grid[0]).factor, levy.Constant)
    for alpha, blocks in zip(cfg.alpha_grid, by_alpha):
        _, (z0, z1), plots = blocks[0]
        report.plots.extend(plots)
        for k, (r, lam) in enumerate(product(cfg.r_grid, cfg.lambda_grid)):
            combo_rows = _slice_rows(blocks, k)
            report.rows.extend(combo_rows)
            label = f"a={alpha:g} r={r} lam={lam:g}"
            if pure_power and len(cfg.t_grid) >= 2:
                # z is invariant in t on shared arrivals, so the KS fit cannot
                # fail; the pathwise drift bound can.
                t0, t1 = cfg.t_grid[0], cfg.t_grid[-1]
                ks = stats.ks_two_sample(z0[k], z1[k])
                drift = float(np.max(np.abs(z0[k] / z1[k] - 1.0)))
                bound = _DRIFT_TOL * (1.0 + abs(math.log(t0)) + abs(math.log(t1)))
                report.verdicts.append(
                    Verdict(
                        name=f"self_similarity {label}",
                        passed=ks.p_value > 0.01 and drift <= bound,
                        detail=f"cross-horizon KS stat={ks.statistic:.6g} p={ks.p_value:.6g}, "
                        f"pathwise drift {drift:.3g} (bound {bound:.3g})",
                    )
                )
            report.verdicts.append(_ks_trend(cfg, label, combo_rows)[0])


# --------------------------------------------------------------------------
# edge-right


def _right_task(args):
    """One (r, block) slice: shared arrivals across the whole lambda grid."""
    cfg, r_idx, block = args
    tail = levy.parse_tail(cfg.tail, 0.0)
    r = cfg.r_grid[r_idx]
    root = _edge_root(cfg, block, r_idx)
    levels = np.asarray(cfg.level_grid)
    rows = [[] for _ in cfg.lambda_grid]
    ratio_rows = []
    ratio_r = r if r == min(cfg.r_grid) else None
    slices = [(r, lam) for lam in cfg.lambda_grid]
    z_all, w_all = _z_sweep(
        tail, _replicate_seeds(root, _SAMPLE_STREAM, cfg.replicates), cfg.n_terms,
        cfg.t_grid, slices, ratio_r,
    )
    z_tmin = z_all[cfg.t_grid.index(min(cfg.t_grid))]
    for j, (t, z) in enumerate(zip(cfg.t_grid, z_all)):
        for k, lam in enumerate(cfg.lambda_grid):
            ks = stats.ks_one_sample(
                z[k], lambda x: limits.cauchy_rth_jump_cdf(r + 1, lam, x)
            )
            rows[k].append(
                ReportRow(
                    edge="right",
                    tail=str(tail),
                    alpha=0.0,
                    t=t,
                    lam=lam,
                    r=r,
                    n=cfg.replicates,
                    ks_stat=ks.statistic,
                    p_value=ks.p_value,
                    aux1=_median(z[k]),
                    aux2=float(np.mean(z[k] <= levels[k])),
                    seed=root,
                )
            )
        if w_all is not None:
            ratio_rows.append(
                ReportRow(
                    edge="right:ratio",
                    tail=str(tail),
                    alpha=0.0,
                    t=t,
                    lam=1.0,
                    r=r,
                    n=cfg.replicates,
                    ks_stat=math.nan,
                    p_value=math.nan,
                    aux1=_median(w_all[j]),
                    aux2=float(np.max(w_all[j])),
                    seed=root,
                )
            )
    plots = []
    if cfg.plot and block == 0:
        for k, lam in enumerate(cfg.lambda_grid):
            xs = _downsample(z_tmin[k])
            grid = np.linspace(xs[0], xs[-1], 256)
            plots.append(
                PlotSlice(
                    name=f"right_r{r}_lam{lam:g}",
                    samples=xs,
                    curve_x=tuple(float(x) for x in grid),
                    curve_y=tuple(
                        float(v) for v in limits.cauchy_rth_jump_cdf(r + 1, lam, grid)
                    ),
                )
            )
    joint_hits = int(np.count_nonzero(np.all(z_tmin <= levels[:, None], axis=0)))
    return rows, ratio_rows, joint_hits, plots


def _run_right(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    """Zero-index small-horizon limit: ranked-jump laws, joint fidi, ratio trend."""
    by_r = _slice_tasks(cfg, _right_task, len(cfg.r_grid))
    t_desc = sorted(cfg.t_grid, reverse=True)
    floor = _PILOT_KS_THRESHOLD * math.sqrt(_PILOT_ANCHOR_N / cfg.replicates)
    for r, blocks in zip(cfg.r_grid, by_r):
        for k, lam in enumerate(cfg.lambda_grid):
            combo_rows = _slice_rows(blocks, k)
            report.rows.extend(combo_rows)
            label = f"r={r} lam={lam:g}"
            trend, medians = _ks_trend(cfg, label, combo_rows)
            report.verdicts.append(trend)
            report.verdicts.append(
                Verdict(
                    name=f"ks_terminal_floor {label}",
                    passed=medians[-1] < floor,
                    detail=f"terminal median {medians[-1]:.6g} vs threshold {floor:.6g}",
                )
            )
    for blocks in by_r:
        ratio_rows = [row for res in blocks for row in res[1]]
        report.rows.extend(ratio_rows)
        if ratio_rows:
            meds = [
                _median([row.aux1 for row in ratio_rows if row.t == t]) for t in t_desc
            ]
            report.verdicts.append(_ratio_trend(meds))
    n = cfg.replicates * cfg.seed_blocks
    query = FidiQuery(lambdas=cfg.lambda_grid, levels=cfg.level_grid)
    for r_idx, (r, blocks) in enumerate(zip(cfg.r_grid, by_r)):
        mc = sum(res[2] for res in blocks) / n
        analytic = limits.fidi_probability(query, r + 1)
        report.rows.append(
            ReportRow(
                edge="right:fidi",
                tail=str(levy.parse_tail(cfg.tail, 0.0)),
                alpha=0.0,
                t=min(cfg.t_grid),
                lam=cfg.lambda_grid[-1],
                r=r,
                n=n,
                ks_stat=abs(analytic - mc),
                p_value=math.nan,
                aux1=analytic,
                aux2=mc,
                seed=_edge_root(cfg, 0, r_idx),
            )
        )
        report.verdicts.append(_mc_agreement(f"fidi_joint r={r}", analytic, mc, n))
    for blocks in by_r:
        report.plots.extend(blocks[0][3])


# --------------------------------------------------------------------------
# edge-bottom


def _bottom_task(args):
    """Per-seed relative errors, indexed (replicate, lam, r, alpha), on shared arrivals."""
    cfg, rep_lo, rep_hi = args
    root = _edge_root(cfg)
    grids = (cfg.lambda_grid, cfg.r_grid, cfg.alpha_grid)
    errors = np.empty((rep_hi - rep_lo,) + tuple(len(g) for g in grids))
    path_ok = True
    # next(), not enumerate: enumerate's cached result tuple would keep the
    # last series alive while the next one is drawn.
    series = iter_arrivals(derive_seed(root, np.arange(rep_lo, rep_hi)), cfg.n_terms)
    for k in range(rep_hi - rep_lo):
        arr = next(series)
        for li, lam in enumerate(cfg.lambda_grid):
            ranked = limits.cauchy_ordered_jump_sample(arr, cfg.r_grid, lam)
            powers = limits.trimmed_stable_power_sample(arr, cfg.alpha_grid, cfg.r_grid, lam)
            errors[k, li] = np.abs(powers / ranked[:, None] - 1.0)
            # Both quantities, at the first alpha, in increasing r.
            path = np.stack([powers[:, 0], ranked])[:, np.argsort(cfg.r_grid)]
            path_ok &= not np.any(path[:, 1:] > path[:, :-1] + 1e-12)
        del arr  # free this seed's arrivals before the next seed's are drawn
    return errors, path_ok


def _run_bottom(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    """Index-to-zero coupling: per-seed error trends on shared randomness."""
    alphas = cfg.alpha_grid
    results = _run_pool(cfg, _bottom_task, _replicate_chunks(cfg))
    errors = np.concatenate([res[0] for res in results], axis=0)
    path_ok = all(res[1] for res in results)
    root = _edge_root(cfg)
    for li, lam in enumerate(cfg.lambda_grid):
        for ri, r in enumerate(cfg.r_grid):
            for ai, alpha in enumerate(alphas):
                errs = errors[:, li, ri, ai]
                report.rows.append(
                    ReportRow(
                        edge="bottom",
                        tail="cauchy",
                        alpha=alpha,
                        t=math.nan,
                        lam=lam,
                        r=r,
                        n=cfg.replicates,
                        ks_stat=math.nan,
                        p_value=math.nan,
                        aux1=_median(errs),
                        aux2=float(np.mean(errs <= 0.02)),
                        seed=root,
                    )
                )
            label = f"r={r} lam={lam:g}"
            per_seed = errors[:, li, ri]
            inversions = np.sum(np.diff(per_seed, axis=1) > 1e-12, axis=1)
            mono_ok = int(np.sum(inversions <= 1))
            report.verdicts.append(
                Verdict(
                    name=f"per_seed_monotone {label}",
                    passed=mono_ok == cfg.replicates,
                    detail=f"{mono_ok}/{cfg.replicates} seeds with <= 1 inversion",
                )
            )
            frac = float(np.mean(per_seed[:, -1] <= 0.02))
            report.verdicts.append(
                Verdict(
                    name=f"terminal_2pct {label}",
                    passed=frac >= 0.95,
                    detail=f"{frac:.3f} of seeds within 2% at alpha={alphas[-1]:g}",
                )
            )
            if cfg.plot:
                report.plots.append(
                    PlotSlice(
                        name=f"bottom_r{r}_lam{lam:g}",
                        samples=_downsample(per_seed[:, -1]),
                        curve_x=(),
                        curve_y=(),
                    )
                )
    report.verdicts.append(
        Verdict(
            name="pathwise_r_decreasing",
            passed=path_ok,
            detail="both coupled quantities shrink as trimming deepens",
        )
    )


# --------------------------------------------------------------------------
# fidi validation


def _fidi_task(args):
    """Joint indicator counts for each rank of ``_FIDI_RANKS`` on each fixed query.

    Replicates are stacked ``_FIDI_BLOCK`` rows at a time.  Per row, a
    query holds at rank ``k`` when no (lam, y) pair has ``k`` or more jumps
    above ``y`` by ``lam``.  A block counts every pair of the grid in one
    (pairs, rows, columns) mask, takes each query's largest count over its
    pairs with one ``np.maximum.reduceat``, and compares it with each rank.
    Arrivals increase along a row, so a block is counted only over its
    reachable prefix: the columns where some row still has an arrival below
    ``1 / y`` for the grid's smallest level ``y``.
    """
    cfg, rep_lo, rep_hi = args
    root = _edge_root(cfg)
    hits = np.zeros((len(FIDI_QUERY_GRID), len(_FIDI_RANKS)), dtype=np.int64)
    depth_ok = True
    task_seeds = derive_seed(root, np.arange(rep_lo, rep_hi))
    lams = np.array([lam for q in FIDI_QUERY_GRID for lam in q.lambdas])[:, None, None]
    reaches = 1.0 / np.array([y for q in FIDI_QUERY_GRID for y in q.levels])[:, None, None]
    starts = np.cumsum([0] + [len(q) for q in FIDI_QUERY_GRID[:-1]])
    ranks = np.array(_FIDI_RANKS)[:, None, None]
    for lo in range(0, len(task_seeds), _FIDI_BLOCK):
        seeds = task_seeds[lo : lo + _FIDI_BLOCK]
        arrivals, marks = _stream_matrix(seeds, _FIDI_DEPTH)
        depth_ok &= bool(np.all(arrivals[:, -1] >= 8.0))
        # Column minima are nondecreasing, as each row increases.
        width = int(np.searchsorted(arrivals.min(axis=0), reaches.max()))
        counts = np.count_nonzero(
            (marks[:, :width] <= lams) & (arrivals[:, :width] < reaches), axis=2
        )
        most = np.maximum.reduceat(counts, starts, axis=0)  # largest count over the pairs
        hits += np.count_nonzero(most < ranks, axis=2).T
    return hits, depth_ok


def _run_fidi(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    """Analytic fidi formulas vs Monte Carlo over ranked-jump ladders."""
    results = _run_pool(cfg, _fidi_task, _replicate_chunks(cfg))
    hits = np.sum([res[0] for res in results], axis=0)
    if not all(res[1] for res in results):
        raise RuntimeError("fidi ladder depth bound violated; increase the fixed depth")
    root = _edge_root(cfg)
    n = cfg.replicates
    for qi, q in enumerate(FIDI_QUERY_GRID):
        for rank_idx, rank in enumerate(_FIDI_RANKS):
            analytic = limits.fidi_probability(q, rank)
            mc = float(hits[qi, rank_idx]) / n
            report.rows.append(
                ReportRow(
                    edge="fidi",
                    tail="cauchy",
                    alpha=1.0,
                    t=float(qi + 1),  # query index; the schema has no query column
                    lam=q.lambdas[-1],
                    r=rank,
                    n=n,
                    ks_stat=abs(analytic - mc),
                    p_value=math.nan,
                    aux1=analytic,
                    aux2=mc,
                    seed=root,
                )
            )
            name = f"fidi_query{qi + 1}_rank{rank}"
            report.verdicts.append(_mc_agreement(name, analytic, mc, n))
    worst = max(
        abs(limits.fidi_probability(q, k) - limits.cauchy_rth_jump_cdf(k, *q.lambdas, *q.levels))
        for q in FIDI_QUERY_GRID
        if len(q) == 1
        for k in (1, 2, 3)
    )
    report.verdicts.append(
        Verdict(
            name="n1_reduction_exact",
            passed=worst <= 1e-12,
            detail=f"worst |fidi - marginal| = {worst:.3g}",
        )
    )


# --------------------------------------------------------------------------
# diagnostics


_DIAG_FAMILIES = ("const(2,0.5)", "stable(0.5)", "rational(0.5)", "log")


def _no_violations(name: str, viol: int, over: str) -> Verdict:
    return Verdict(name=name, passed=viol == 0, detail=f"{viol} violations over {over}")


def _diag_sandwich(cfg: ExperimentConfig) -> tuple[list[ReportRow], list[Verdict]]:
    """Inverse sandwich tail(inverse(u)) <= u of each family, in the log domain."""
    root = _edge_root(cfg)
    rows, verdicts = [], []
    for spec_str in _DIAG_FAMILIES:
        tail = levy.parse_tail(spec_str)
        rng = np.random.default_rng(derive_seed(root, 1))
        u = 10.0 ** rng.uniform(-8.0, 8.0, 10_000)
        log_x = np.asarray(levy.tail_inverse_log(tail, u))  # covers u whose inverse underflows
        back = np.asarray(levy.tail_eval_from_log(tail, log_x))
        viol = int(np.sum(back > u))
        rows.append(
            ReportRow(
                edge="diag:sandwich", tail=spec_str, alpha=tail.alpha, t=math.nan,
                lam=math.nan, r=0, n=10_000, ks_stat=math.nan, p_value=math.nan,
                aux1=float(viol), aux2=0.0, seed=root,
            )
        )
        verdicts.append(_no_violations(f"inverse_sandwich {spec_str}", viol, "10000 points"))
    return rows, verdicts


def _diag_potter(cfg: ExperimentConfig) -> tuple[list[ReportRow], list[Verdict]]:
    """Potter bounds on each family's slowly varying factor L(x) = tail(x) * x**alpha."""
    root = _edge_root(cfg)
    verdicts = []
    for spec_str in _DIAG_FAMILIES:
        tail = levy.parse_tail(spec_str)
        # Below this abscissa L is monotone.
        cap = math.exp(-tail.factor.p) if isinstance(tail.factor, levy.LogPower) else 1.0
        rng = np.random.default_rng(derive_seed(root, 2))
        u = rng.uniform(0.0, cap, 10_000) + 1e-300
        v = rng.uniform(0.0, cap, 10_000) + 1e-300
        slow_u, slow_v = (np.asarray(levy.tail_eval(tail, x)) * x**tail.alpha for x in (u, v))
        ratio = slow_u / slow_v
        lo = np.minimum(u / v, v / u)
        hi = np.maximum(u / v, v / u)
        viol = int(np.sum((ratio < lo) | (ratio > hi)))
        verdicts.append(_no_violations(f"potter_bounds {spec_str}", viol, "10000 pairs"))
    return [], verdicts


def _diag_power_ratio(cfg: ExperimentConfig) -> tuple[list[ReportRow], list[Verdict]]:
    """Regular variation of the rational tail: tail(x) / tail(cx) against c**alpha."""
    root = _edge_root(cfg)
    tail = levy.rational_tail(0.5)
    x = 1e-8
    rows, worst = [], 0.0
    for c in (0.5, 1.0, 2.0, 5.0):
        ratio = float(levy.tail_eval(tail, x)) / float(levy.tail_eval(tail, c * x))
        target = c**tail.alpha
        worst = max(worst, abs(ratio / target - 1.0))
        rows.append(
            ReportRow(
                edge="diag:power_ratio", tail="rational(0.5)", alpha=0.5, t=math.nan,
                lam=math.nan, r=0, n=1, ks_stat=math.nan, p_value=math.nan,
                aux1=ratio, aux2=target, seed=root,
            )
        )
    verdict = Verdict(
        name="power_ratio_limit",
        passed=worst < 1e-3,
        detail=f"worst relative deviation {worst:.3g} at x=1e-08",
    )
    return rows, [verdict]


def _diag_slowvar(cfg: ExperimentConfig) -> tuple[list[ReportRow], list[Verdict]]:
    """Slow variation of the log tail: |tail(2x) / tail(x) - 1| shrinks toward 0."""
    tail = levy.log_power_tail()
    devs = [
        abs(float(levy.tail_eval(tail, 2 * x)) / float(levy.tail_eval(tail, x)) - 1.0)
        for x in (1e-8, 1e-15, 1e-23, 1e-31)
    ]
    verdict = Verdict(
        name="slow_variation_trend",
        passed=all(b < a for a, b in zip(devs, devs[1:])) and devs[-1] < 1e-2,
        detail="deviations " + " ".join(f"{d:.4g}" for d in devs),
    )
    return [], [verdict]


def _diag_ratio_trend(cfg: ExperimentConfig) -> tuple[list[ReportRow], list[Verdict]]:
    """Median trimmed ratio of the log tail as the horizon shrinks."""
    root = _edge_root(cfg)
    t_grid = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    seeds = _replicate_seeds(root, 3, 100)
    _, w = _z_sweep(levy.log_power_tail(), seeds, cfg.n_terms, t_grid, (), ratio_r=0)
    meds = [_median(w_t) for w_t in w]
    rows = [
        ReportRow(
            edge="diag:ratio", tail="log", alpha=0.0, t=t, lam=1.0, r=0,
            n=100, ks_stat=math.nan, p_value=math.nan, aux1=m, aux2=math.nan,
            seed=root,
        )
        for t, m in zip(t_grid, meds)
    ]
    return rows, [_ratio_trend(meds)]


#: The diagnostics' checks, in the order of their rows and verdicts.
_DIAG_CHECKS = (
    _diag_sandwich, _diag_potter, _diag_power_ratio, _diag_slowvar, _diag_ratio_trend,
)


def _diag_task(args):
    check, cfg = args
    return check(cfg)


def _run_diagnostics(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    """Tail-function property suites and the trimmed-ratio trend study."""
    for rows, verdicts in _run_pool(cfg, _diag_task, [(c, cfg) for c in _DIAG_CHECKS]):
        report.rows.extend(rows)
        report.verdicts.extend(verdicts)


class _Edge(NamedTuple):
    tag: int
    tail: str
    ks: bool
    run: Callable[[ExperimentConfig, ExperimentReport], None]


#: Every edge: its seed tag (part of the stream contract), its default tail,
#: whether it is a KS edge (which reads the configured tail and needs 1000
#: replicates; the others run their default family only), and its runner.
_EDGES = {
    "left": _Edge(1, "stable", True, _run_left),
    "right": _Edge(2, "log", True, _run_right),
    "bottom": _Edge(3, "cauchy", False, _run_bottom),
    "fidi": _Edge(4, "cauchy", False, _run_fidi),
    "diagnostics": _Edge(5, "log", False, _run_diagnostics),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run ``cfg``'s edge: its runner fills the report, and the whole run is timed."""
    start = perf_counter()
    report = ExperimentReport(edge=cfg.edge, config=cfg)
    _EDGES[cfg.edge].run(cfg, report)
    report.total_ms = int((perf_counter() - start) * 1000)
    return report
