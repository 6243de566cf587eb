"""Tests for the experiment runners: configs, seeds, rows, verdicts.

The ladder-matrix kernels the runners call are checked against hand
ladders whose trimmed sums and ratios are known in closed form, and the
CSV bytes of small edge runs are pinned by digest.  End-to-end runs use
deliberately small grids so the whole module stays fast.
"""

import csv
import functools
import hashlib
import io
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from subortrim import experiments, levy
from subortrim.experiments import (
    CSV_HEADER,
    DEFAULT_MASTER_SEED,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    Verdict,
    _FIDI_DEPTH,
    _downsample,
    _edge_root,
    _fidi_task,
    _stream_matrix,
    _weakly_nonincreasing,
    _z_sweep,
    run_experiment,
)
from subortrim.limits import FIDI_QUERY_GRID, FidiQuery, fidi_probability
from subortrim.pointproc import (
    JumpLadder,
    derive_seed,
    ratio_diagnostic,
    sample_arrivals,
    trimmed_log_sums,
    trimmed_ratios,
    trimmed_z_rows,
    z_statistic_trimmed,
)


def _tiny(edge, **kw):
    base = dict(replicates=1000, n_terms=1000, seed_blocks=1)
    if edge in ("bottom", "fidi", "diagnostics"):
        base["replicates"] = 5
    base.update(kw)
    return ExperimentConfig(edge=edge, **base)


class TestConfig:
    def test_default_tail_per_edge(self):
        expected = {
            "left": "stable",
            "right": "log",
            "bottom": "cauchy",
            "fidi": "cauchy",
            "diagnostics": "log",
        }
        for edge, tail in expected.items():
            assert _tiny(edge).tail == tail

    def test_edge_seed_tags_are_pinned(self):
        # Each edge's tag roots its seed tree: part of the stream contract.
        tags = {edge: spec.tag for edge, spec in experiments._EDGES.items()}
        assert tags == {"left": 1, "right": 2, "bottom": 3, "fidi": 4, "diagnostics": 5}

    def test_trim_depth_must_leave_a_jump(self):
        # r >= n_terms used to pass here and fail deep in the run.
        for edge in ("left", "bottom"):
            with pytest.raises(ValueError, match="below n_terms"):
                _tiny(edge, r_grid=(0, 1000))
            with pytest.raises(ValueError, match="below n_terms"):
                _tiny(edge, r_grid=(2000,), n_terms=1500)
            assert _tiny(edge, r_grid=(999,)).r_grid == (999,)

    def test_echo_round_trips_grids_as_lists(self):
        cfg = _tiny("fidi")
        echo = cfg.echo()
        assert echo["edge"] == "fidi"
        assert echo["alpha_grid"] == list(cfg.alpha_grid)
        assert echo["master_seed"] == DEFAULT_MASTER_SEED
        assert isinstance(echo["lambda_grid"], list)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(edge="top"),
            dict(edge="left", alpha_grid=()),
            dict(edge="left", alpha_grid=(1.0,)),
            dict(edge="left", alpha_grid=(0.0,)),
            dict(edge="left", t_grid=(0.0,)),
            dict(edge="left", lambda_grid=(0.5, 0.5)),
            dict(edge="left", lambda_grid=(0.5, 1.5)),
            dict(edge="left", lambda_grid=(0.0, 0.5)),
            dict(edge="left", r_grid=(-1,)),
            dict(edge="left", replicates=999),
            dict(edge="right", replicates=999),
            dict(edge="left", replicates=1000, n_terms=999),
            dict(edge="left", replicates=1000, seed_blocks=0),
            dict(edge="left", replicates=1000, jobs=0),
            dict(edge="fidi", master_seed=-1),
            dict(edge="fidi", master_seed=1.5),
            dict(edge="fidi", master_seed="7"),
            dict(edge="right", replicates=1000, level_grid=(1.0,)),
            dict(
                edge="right",
                replicates=1000,
                lambda_grid=(0.5, 1.0),
                level_grid=(1.0, -2.0),
            ),
            dict(edge="right", replicates=1000, tail="stable"),
            dict(edge="left", replicates=1000, tail="log"),
            dict(edge="left", replicates=1000, tail="fancy(3)"),
            dict(
                edge="right",
                replicates=1000,
                r_grid=(0, 1),
                lambda_grid=(0.5, 1.0),
                level_grid=(2.0, 0.0),
            ),
            dict(edge="left", t_grid=(1e-2, math.inf)),
            dict(edge="right", t_grid=(math.nan,)),
            dict(edge="right", lambda_grid=(0.5, 1.0), level_grid=(1.0, math.nan)),
            # A repeated grid value would repeat its verdicts under one name.
            dict(edge="right", r_grid=(0, 0)),
            dict(edge="left", alpha_grid=(0.5, 0.5)),
            dict(edge="left", t_grid=(1e-2, 1e-4, 1e-2)),
            dict(edge="bottom", r_grid=(1, 0, 1)),
            # An infinite level makes the joint check vacuous, and the JSON
            # summary, which echoes every grid, would carry Infinity.
            dict(edge="right", lambda_grid=(1.0,), level_grid=(math.inf,)),
            dict(edge="left", level_grid=(1.0, math.inf, 1.5, 2.0)),
        ],
    )
    def test_rejected_configs(self, kw):
        with pytest.raises(ValueError):
            ExperimentConfig(**kw)

    @pytest.mark.parametrize("name", ["replicates", "n_terms", "seed_blocks", "jobs"])
    @pytest.mark.parametrize("bad", [1000.0, 1.5, True, "1000"])
    def test_counts_must_be_integers(self, name, bad):
        # Unchecked, a float fails deep in the run and True runs as one replicate.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentConfig(edge="left", **{name: bad})

    @pytest.mark.parametrize("bad", [1.0, True, "1"])
    def test_r_grid_entries_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="r_grid entry must be an integer"):
            ExperimentConfig(edge="left", r_grid=(0, bad))

    def test_numpy_integer_counts_become_python_ints(self):
        cfg = ExperimentConfig(
            edge="left", replicates=np.int64(1000), n_terms=np.int32(1000),
            seed_blocks=np.uint8(2), jobs=np.int64(1), r_grid=(np.int64(0), np.int16(2)),
            master_seed=np.uint64(7),
        )
        counts = (cfg.replicates, cfg.n_terms, cfg.seed_blocks, cfg.jobs, cfg.master_seed)
        assert counts == (1000, 1000, 2, 1, 7)
        assert all(type(v) is int for v in counts + cfg.r_grid)
        assert cfg.r_grid == (0, 2)

    def test_unordered_levels_fine_without_the_second_jump(self):
        cfg = _tiny("right", r_grid=(0, 2), lambda_grid=(0.5, 1.0), level_grid=(2.0, 1.0))
        assert cfg.level_grid == (2.0, 1.0)

    def test_low_replicates_fine_off_the_ks_edges(self):
        for edge in ("bottom", "fidi", "diagnostics"):
            assert ExperimentConfig(edge=edge, replicates=1).replicates == 1

    def test_frozen(self):
        cfg = _tiny("left")
        with pytest.raises(AttributeError):
            cfg.jobs = 2


class TestFamilyTail:
    """The edges build their tail with ``parse_tail`` at a grid index."""

    def test_alpha_supersedes_embedded_index(self):
        stable, rational = levy.stable_tail(0.25), levy.rational_tail(0.25)
        cases = [
            ("stable(0.9)", stable),
            ("rational(0.9)", rational),
            ("const(3.0, 0.9)", levy.constant_tail(3.0, 0.25)),
            ("const(1, 0.9)", stable),
            ("stable", stable),
            ("rational", rational),
            ("const(3)", levy.constant_tail(3.0, 0.25)),
        ]
        for spec, want in cases:
            assert levy.parse_tail(spec, 0.25) == want, spec

    def test_cauchy_alias(self):
        assert levy.parse_tail("cauchy", 0.5) == levy.stable_tail(0.5)
        assert levy.parse_tail("cauchy(0.9)", 0.5) == levy.stable_tail(0.5)

    def test_zero_index_families_ignore_alpha(self):
        assert levy.parse_tail("log", 0.5) == levy.log_power_tail()
        assert levy.parse_tail("logpow(2.0)", 0.5) == levy.log_power_tail(2.0)

    def test_unknown_family(self):
        # The whole spec is parsed, not only its family name.
        for spec in ("gauss(1)", "gauss", "stable(abc)", "stable(0.5", "log(3)", "rational(x,y)",
                     "const"):
            with pytest.raises(ValueError, match="tail spec|tail family"):
                levy.parse_tail(spec, 0.5)
            with pytest.raises(ValueError, match="tail spec|tail family"):
                ExperimentConfig(edge="left", tail=spec)

    @pytest.mark.parametrize("edge", ["bottom", "fidi", "diagnostics"])
    def test_fixed_family_edges_reject_other_tails(self, edge):
        label = experiments._EDGES[edge].tail
        assert ExperimentConfig(edge=edge, tail=label).tail == label
        for other in ("nonsense", "stable", "log" if label != "log" else "cauchy"):
            with pytest.raises(ValueError, match="fixed"):
                ExperimentConfig(edge=edge, tail=other)


class TestCsvShape:
    def test_header_pinned(self):
        assert (
            CSV_HEADER
            == "edge,tail,alpha,t,lambda,r,n,ks_stat,p_value,aux1,aux2,seed,ms_elapsed"
        )

    def test_csv_line_repr_floats_and_zero_ms(self):
        row = ReportRow(
            edge="left",
            tail="stable",
            alpha=0.5,
            t=1e-4,
            lam=1.0,
            r=2,
            n=1000,
            ks_stat=0.012345678901234567,
            p_value=0.5,
            aux1=1.25,
            aux2=float("nan"),
            seed=42,
        )
        fields = row.csv_cells()
        assert fields[0] == "left"
        assert fields[2] == "0.5"
        assert fields[3] == "0.0001"
        assert fields[7] == repr(0.012345678901234567)
        assert fields[9] == "1.25"
        assert fields[10] == "nan"
        assert fields[-1] == "0"
        # repr round-trips doubles exactly
        assert float(fields[7]) == 0.012345678901234567

    def test_report_csv_text(self):
        cfg = _tiny("fidi")
        report = ExperimentReport(edge="fidi", config=cfg)
        assert report.csv_text() == CSV_HEADER + "\n"
        assert report.all_pass  # vacuous until verdicts land
        report.verdicts.append(Verdict(name="x", passed=False, detail=""))
        assert not report.all_pass


# Two hand ladders (rows) of ranked jumps with their marks; the last jump of
# each row is its resolution floor.  Every sum stays below 1, where the unit
# log-power tail log(1/x) is positive.
HAND_JUMPS = np.array([[0.4, 0.2, 0.1, 0.05, 0.025], [0.3, 0.1, 0.05, 0.04, 0.02]])
HAND_MARKS = np.array([[0.9, 0.3, 0.6, 0.2, 0.5], [0.1, 0.8, 0.5, 0.7, 0.25]])
# Tail and mean jump mass below eps: stable(0.5) has x**-0.5 and
# a/(1-a) * eps**(1-a) = eps**0.5; the unit log-power tail has log(1/x) and
# Gamma(2, w) - w e^-w = eps with w = log(1/eps).
HAND_TAILS = {
    "stable(0.5)": (lambda x: x**-0.5, math.sqrt),
    "log": (lambda x: math.log(1.0 / x), lambda eps: eps),
}


class TestBatchedKernels:
    def _matrix(self, rows=8, depth=1500):
        arrivals = np.empty((rows, depth))
        marks = np.empty_like(arrivals)
        for i in range(rows):
            series = sample_arrivals(7000 + i, depth)
            arrivals[i] = series.arrivals
            marks[i] = series.marks
        return arrivals, marks

    @pytest.mark.parametrize("tail_spec", ["log", "stable(0.5)"])
    @pytest.mark.parametrize("lam, r", [(1.0, 0), (0.5, 1), (0.75, 2)])
    def test_z_matches_scalar_route(self, tail_spec, lam, r):
        # z = 1/(t * tail(S)) with S the jumps of marks <= lam beyond the r
        # largest, plus t * lam * (mean jump mass below the floor).
        tail = levy.parse_tail(tail_spec)
        tail_fn, mean_below = HAND_TAILS[tail_spec]
        t = 0.5
        log_j = np.log(HAND_JUMPS)
        z = trimmed_z_rows(tail, t, log_j, HAND_MARKS, lam, r, log_j[:, -1])
        assert z.shape == (2,)
        for i in range(2):
            kept = [j for j, m in zip(HAND_JUMPS[i], HAND_MARKS[i]) if m <= lam][r:]
            s = math.fsum(kept) + t * lam * mean_below(HAND_JUMPS[i, -1])
            assert z[i] == pytest.approx(1.0 / (t * tail_fn(s)), rel=1e-14)
            ladder = JumpLadder(
                horizon=t, log_jumps=log_j[i].copy(), marks=HAND_MARKS[i].copy(),
                tail=tail, floor_log_jump=float(log_j[i, -1]),
            )
            assert z_statistic_trimmed(ladder, lam, r) == z[i]  # the one-row call

    def test_ratio_matches_scalar_route(self):
        # (sum of jumps beyond r) / J_(r+1) on jumps 4, 2, 1, 0.5: exact
        # whether or not the jumps underflow (second row: shifted by -800).
        log_j = np.log([4.0, 2.0, 1.0, 0.5])
        rows = np.stack([log_j, log_j - 800.0])
        assert math.exp(rows[1, 0]) == 0.0
        ladder = JumpLadder(
            horizon=1.0, log_jumps=log_j.copy(), marks=np.full(4, 0.5),
            tail=levy.stable_tail(0.5), floor_log_jump=float(log_j[-1]),
        )
        for r, expected in ((0, 1.875), (1, 1.75), (2, 1.5)):
            ratios = trimmed_ratios(rows, r)
            assert ratios == pytest.approx([expected, expected], rel=1e-12)
            assert ratio_diagnostic(ladder, r) == ratios[0]  # the one-row call
        with pytest.raises(ValueError):
            trimmed_ratios(rows, 3)

    def test_z_respects_restriction(self):
        # lam = 1 keeps everything; a tiny lam thins the ladder, which can
        # only shrink the trimmed statistic on shared randomness.
        tail = levy.stable_tail(0.5)
        arrivals, marks = self._matrix(rows=5)
        log_j = np.asarray(levy.tail_inverse_log(tail, arrivals / 1e-2))
        full = trimmed_z_rows(tail, 1e-2, log_j, marks, 1.0, 1, log_j[:, -1])
        thin = trimmed_z_rows(tail, 1e-2, log_j, marks, 0.05, 1, log_j[:, -1])
        assert np.all(thin <= full + 1e-15)


class TestHelpers:
    def test_weakly_nonincreasing(self):
        assert _weakly_nonincreasing([3.0, 2.0, 2.0, 1.0])
        assert not _weakly_nonincreasing([1.0, 2.0])
        assert _weakly_nonincreasing([1.0, 1.05], tol=0.1)
        assert not _weakly_nonincreasing([1.0, 1.2], tol=0.1)
        assert _weakly_nonincreasing([])
        assert _weakly_nonincreasing([1.0])

    def test_downsample_sorts_and_caps(self):
        vals = [3.0, 1.0, 2.0]
        assert _downsample(vals) == (1.0, 2.0, 3.0)
        big = np.random.default_rng(5).uniform(size=2000)
        down = _downsample(big, cap=128)
        assert len(down) == 128
        assert down[0] == min(big) and down[-1] == max(big)
        assert all(b >= a for a, b in zip(down, down[1:]))


class TestEdgeLeft:
    def test_small_run_shape_and_verdicts(self):
        cfg = ExperimentConfig(
            edge="left",
            tail="stable",
            alpha_grid=(0.5,),
            t_grid=(1.0, 1e-3),
            lambda_grid=(1.0,),
            r_grid=(0,),
            replicates=1000,
            n_terms=1000,
            seed_blocks=1,
            plot=True,
        )
        report = run_experiment(cfg)
        assert report.edge == "left"
        # one row per (alpha, r, lam, block, t)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.edge == "left"
            assert row.n == 1000
            assert 0.0 <= row.p_value <= 1.0
            assert row.ks_stat > 0.0
        names = [v.name for v in report.verdicts]
        assert "self_similarity a=0.5 r=0 lam=1" in names
        assert any(n.startswith("ks_trend_nonincreasing") for n in names)
        assert report.plots and report.plots[0].name == "left_a0.5_r0_lam1"
        assert len(report.plots[0].curve_x) > 0

    def test_self_similarity_fails_on_pathwise_drift(self, monkeypatch):
        # A drift of 1e-11 per decade of t leaves the cross-horizon KS fit at
        # p = 1 (every sample keeps its rank), so only the pathwise bound can
        # catch it.
        from subortrim import experiments

        exact = experiments.trimmed_z_rows

        def drifting(tail, t, *args):
            return exact(tail, t, *args) * (1.0 + 1e-11 * abs(math.log10(t)))

        cfg = ExperimentConfig(
            edge="left", tail="stable", alpha_grid=(0.5,), t_grid=(1.0, 1e-3),
            lambda_grid=(1.0,), r_grid=(0,), replicates=1000, seed_blocks=1,
        )
        name = "self_similarity a=0.5 r=0 lam=1"
        (honest,) = [v for v in run_experiment(cfg).verdicts if v.name == name]
        assert honest.passed, honest.detail
        monkeypatch.setattr(experiments, "trimmed_z_rows", drifting)
        (drifted,) = [v for v in run_experiment(cfg).verdicts if v.name == name]
        assert not drifted.passed
        assert " p=1," in drifted.detail

    def test_constant_family_gets_the_self_similarity_check(self):
        # c * x**-alpha is an exact power law like the stable tail.
        cfg = ExperimentConfig(
            edge="left", tail="const(2,0.5)", alpha_grid=(0.5,), t_grid=(1.0, 1e-3),
            lambda_grid=(1.0,), r_grid=(0,), replicates=1000, seed_blocks=1,
        )
        (selfsim,) = [
            v for v in run_experiment(cfg).verdicts if v.name.startswith("self_similarity")
        ]
        assert selfsim.name == "self_similarity a=0.5 r=0 lam=1"
        assert selfsim.passed, selfsim.detail

    def test_each_r_lambda_slice_matches_its_own_run(self):
        # One (alpha, block) task serves every (r, lambda) from the same
        # streams, so a slice of the full grid is the run of that slice.
        base = dict(
            edge="left", tail="rational", alpha_grid=(0.5, 0.3), t_grid=(1e-2, 1e-4),
            replicates=1000, seed_blocks=2,
        )
        full = run_experiment(ExperimentConfig(**base, r_grid=(0, 2), lambda_grid=(0.5, 1.0)))
        full_lines = full.csv_text().splitlines()[1:]
        for r in (0, 2):
            for lam in (0.5, 1.0):
                alone = run_experiment(ExperimentConfig(**base, r_grid=(r,), lambda_grid=(lam,)))
                lam_r = [repr(lam), str(r)]
                sliced = [line for line in full_lines if line.split(",")[4:6] == lam_r]
                assert sliced == alone.csv_text().splitlines()[1:]
                suffix = f" r={r} lam={lam:g}"
                assert [v for v in full.verdicts if v.name.endswith(suffix)] == alone.verdicts

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rational_tail_at_overflowing_rate(self):
        # Gamma / t overflows to inf at t = 1e-306; those jumps are 0, and
        # a zero floor jump has zero compensation.  Both edges run silently.
        cfg = ExperimentConfig(
            edge="left", tail="rational", alpha_grid=(0.5,), t_grid=(1e-2, 1e-306),
            lambda_grid=(1.0,), r_grid=(0,), replicates=1000, seed_blocks=1,
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 2
        assert all(0.0 <= row.p_value <= 1.0 for row in report.rows)
        cfg = ExperimentConfig(
            edge="right", t_grid=(1e-2, 1e-306), lambda_grid=(1.0,), level_grid=(1.0,),
            r_grid=(0,), replicates=1000, seed_blocks=1,
        )
        report = run_experiment(cfg)
        assert [row.t for row in report.rows if row.edge == "right"] == [1e-2, 1e-306]
        assert all(0.0 <= row.p_value <= 1.0 for row in report.rows if row.edge == "right")
        assert report.all_pass


def _traced_peak(cfg) -> int:
    """Peak traced allocation, in bytes, of ``run_experiment(cfg)``."""
    tracemalloc.start()
    try:
        run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _left_peak(replicates: int, n_terms: int = 1000) -> int:
    cfg = ExperimentConfig(
        edge="left", tail="rational", alpha_grid=(0.5,), t_grid=(1e-1, 1e-6),
        lambda_grid=(1.0,), r_grid=(0,), replicates=replicates, n_terms=n_terms, seed_blocks=1,
    )
    return _traced_peak(cfg)


class TestRowBlocks:
    # The streams are drawn, inverted and reduced in blocks of replicate rows
    # that fill a byte budget; every step is per row, so the budget must not
    # reach the CSV.
    CONFIGS = {
        "left": dict(
            edge="left", tail="rational", alpha_grid=(0.5,), r_grid=(0, 1), t_grid=(1e-2, 1e-5),
            lambda_grid=(0.5, 1.0), replicates=1000, seed_blocks=1,
        ),
        "right": dict(
            edge="right", tail="log", r_grid=(0, 1), t_grid=(1e-2, 1e-4), lambda_grid=(0.5, 1.0),
            level_grid=(1.0, 2.0), replicates=1000, seed_blocks=1,
        ),
    }

    @pytest.mark.parametrize("edge", sorted(CONFIGS))
    def test_csv_does_not_depend_on_the_row_block(self, edge, monkeypatch):
        cfg = ExperimentConfig(**self.CONFIGS[edge])
        row = 8 * cfg.n_terms
        assert cfg.replicates % 7
        texts = [run_experiment(cfg).csv_text()]
        # One row per block; 7 rows, which do not divide the replicates;
        # every replicate in one block.
        for budget in (row - 1, 7 * row + row // 2, cfg.replicates * row):
            monkeypatch.setattr(experiments, "_BLOCK_BYTES", budget)
            texts.append(run_experiment(cfg).csv_text())
        assert texts[1:] == [texts[0]] * 3

    @pytest.mark.parametrize(
        "n_terms, replicates, budget",
        [(1000, 300, None), (20_000, 10, None), (1000, 5, 7999), (3000, 9, 5 * 24_000)],
    )
    def test_sweep_blocks_fill_the_byte_budget(self, n_terms, replicates, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(experiments, "_BLOCK_BYTES", budget)
        budget = experiments._BLOCK_BYTES
        shapes = []

        def spy(seeds, n):
            arrivals, marks = _stream_matrix(seeds, n)
            shapes.append(arrivals.shape)
            return arrivals, marks

        monkeypatch.setattr(experiments, "_stream_matrix", spy)
        seeds = derive_seed(5, np.arange(replicates))
        z, w = _z_sweep(
            levy.parse_tail("rational(0.5)"), seeds, n_terms, (1e-2,), ((0, 1.0),), ratio_r=0
        )
        assert z.shape == (1, 1, replicates) and w.shape == (1, replicates)
        assert sum(rows for rows, _ in shapes) == replicates
        assert all(n == n_terms for _, n in shapes)
        assert all(8 * rows * n <= budget or rows == 1 for rows, n in shapes)
        # Every block but the last is as full as the budget allows.
        full = max(1, budget // (8 * n_terms))
        assert [rows for rows, _ in shapes[:-1]] == [full] * (len(shapes) - 1)

    def test_sweep_frees_each_ladder_before_the_next_inversion(self, monkeypatch):
        # One ladder at a time, across horizons and across blocks.
        ladders = []
        inverse = levy.tail_inverse_log

        def spy(tail, u):
            assert all(ladder() is None for ladder in ladders)
            log_j = inverse(tail, u)
            ladders.append(weakref.ref(log_j))
            return log_j

        monkeypatch.setattr(levy, "tail_inverse_log", spy)
        seeds = derive_seed(5, np.arange(300))
        _z_sweep(levy.parse_tail("rational(0.5)"), seeds, 1000, (1e-2, 1e-4), ((0, 1.0),), 0)
        assert len(ladders) == 6  # three blocks at two horizons

    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_stream_matrix_stacks_the_series(self, count):
        seeds = derive_seed(9, np.arange(count))
        arrivals, marks = _stream_matrix(seeds, 17)
        assert arrivals.shape == marks.shape == (count, 17)
        for i, seed in enumerate(seeds):
            series = sample_arrivals(seed, 17)
            assert np.array_equal(arrivals[i], series.arrivals)
            assert np.array_equal(marks[i], series.marks)

    def test_edge_left_peak_memory(self):
        # The sweep draws 1 MiB stream blocks (131 rows), reduces them at
        # every horizon before drawing the next and frees each horizon's
        # ladder before building the next: 5.2 MiB here, against 10.4 MiB
        # with 256-row blocks that kept the last ladder.  The whole 2000 x
        # 1000 arrival and mark matrices alone take 30.5 MiB, so the gate
        # fails if the sweep builds them again.
        peak = _left_peak(2000)
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_edge_left_peak_memory_is_flat_in_replicates(self):
        # 5.5 MiB at 8000 replicates: the peak does not grow with them.
        peak = _left_peak(8000)
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_edge_left_peak_memory_is_flat_in_ladder_depth(self):
        # 5.3 MiB at 20 000 terms, where 256-row blocks took 196 MiB:
        # the block holds fewer rows of a deeper ladder.
        peak = _left_peak(1000, n_terms=20_000)
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_edge_right_peak_memory(self):
        # The same sweep: 5.2 MiB, against 10.3 MiB with 256-row blocks,
        # where whole stream matrices take 30.5 MiB.
        cfg = ExperimentConfig(
            edge="right", t_grid=(1e-2, 1e-4), lambda_grid=(0.5, 1.0), level_grid=(1.0, 2.0),
            r_grid=(0,), replicates=2000, n_terms=1000, seed_blocks=1,
        )
        peak = _traced_peak(cfg)
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_edge_bottom_peak_memory(self):
        # The power sums share one 0.5 MiB sum-node scratch: 24.1 MiB here,
        # against 31.3 MiB when each call took a full-length 7.6 MiB scratch
        # row.  A 1e6-term ladder is 7.6 MiB, so the gate also fails if one
        # replicate's ladder outlives it into the next.
        cfg = ExperimentConfig(
            edge="bottom", r_grid=(0, 1, 2), lambda_grid=(1.0,), replicates=3, n_terms=1_000_000,
        )
        peak = _traced_peak(cfg)
        assert peak <= 27 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.fixture(scope="module")
def right_report():
    cfg = ExperimentConfig(
        edge="right",
        t_grid=(1e-2, 1e-4),
        lambda_grid=(0.5, 1.0),
        level_grid=(1.0, 2.0),
        r_grid=(0,),
        replicates=1000,
        n_terms=1000,
        seed_blocks=1,
    )
    return run_experiment(cfg)


class TestEdgeRight:
    def test_row_inventory(self, right_report):
        report = right_report
        # per (r, lam): one row per t; plus ratio rows per t for the least
        # trimmed index and one joint-event check row per eligible r.
        by_kind = {}
        for row in report.rows:
            by_kind.setdefault(row.edge, []).append(row)
        assert set(by_kind) == {"right", "right:ratio", "right:fidi"}
        assert len(by_kind["right"]) == 4  # 1 r x 2 lam x 2 t
        assert len(by_kind["right:ratio"]) == 2  # r = 0 only, per t
        assert len(by_kind["right:fidi"]) == 1
        for row in by_kind["right"]:
            assert 0.0 <= row.aux2 <= 1.0  # P(z <= level)
            assert 0.0 <= row.p_value <= 1.0
        for row in by_kind["right:ratio"]:
            assert row.lam == 1.0
            assert row.aux1 >= 1.0  # median ratio
            assert row.aux2 >= row.aux1  # max dominates median
            assert math.isnan(row.ks_stat)
        for row in by_kind["right:fidi"]:
            assert row.ks_stat == pytest.approx(abs(row.aux1 - row.aux2), rel=1e-15)
            assert row.n == 1000

    def test_verdict_inventory(self, right_report):
        names = [v.name for v in right_report.verdicts]
        assert "ks_trend_nonincreasing r=0 lam=0.5" in names
        assert any(n.startswith("ks_terminal_floor") for n in names)
        assert "ratio_trend_to_one" in names
        assert any(n.startswith("fidi_joint") for n in names)

    def test_joint_check_covers_every_r(self):
        # Levels in any order, at every rank: one right:fidi row and verdict per r.
        cfg = _tiny(
            "right", t_grid=(1e-3,), lambda_grid=(0.5, 1.0), level_grid=(2.0, 1.0),
            r_grid=(0, 1, 2),
        )
        report = run_experiment(cfg)
        rows = [row for row in report.rows if row.edge == "right:fidi"]
        assert [row.r for row in rows] == [0, 1, 2]
        query = FidiQuery(cfg.lambda_grid, cfg.level_grid)
        assert [row.aux1 for row in rows] == [fidi_probability(query, r + 1) for r in (0, 1, 2)]
        joint = [v for v in report.verdicts if v.name.startswith("fidi_joint")]
        assert [v.name for v in joint] == [f"fidi_joint r={r}" for r in (0, 1, 2)]
        assert all(v.passed for v in joint)

    def test_every_row_prints_the_canonical_tail(self):
        # The spelled-out unit log-power tail prints as "log" on every row kind.
        cfg = _tiny(
            "right", tail="logpow(1)", t_grid=(1e-2,), lambda_grid=(1.0,), level_grid=(1.0,),
            r_grid=(0,),
        )
        tails = {row.edge: row.tail for row in run_experiment(cfg).rows}
        assert tails == {"right": "log", "right:ratio": "log", "right:fidi": "log"}


class TestEdgeBottom:
    def test_small_run(self):
        cfg = ExperimentConfig(
            edge="bottom",
            alpha_grid=(0.4, 0.2, 0.1),
            lambda_grid=(1.0,),
            r_grid=(0, 1),
            replicates=3,
            n_terms=1000,
            seed_blocks=1,
            plot=True,
        )
        report = run_experiment(cfg)
        # one aggregated row per (r, lam, alpha): 2 * 1 * 3
        assert len(report.rows) == 6
        for row in report.rows:
            assert math.isnan(row.t)
            assert row.n == 3
            assert 0.0 <= row.aux2 <= 1.0
        names = [v.name for v in report.verdicts]
        assert "per_seed_monotone r=0 lam=1" in names
        assert "pathwise_r_decreasing" in names
        assert any(n.startswith("terminal_2pct") for n in names)
        assert report.plots
        for sl in report.plots:
            assert sl.curve_x == () and sl.curve_y == ()
            assert len(sl.samples) > 0

    @pytest.mark.parametrize("sample", ["trimmed_stable_power_sample", "cauchy_ordered_jump_sample"])
    def test_pathwise_verdict_fails_when_samples_grow_with_r(self, monkeypatch, sample):
        from subortrim import limits

        cfg = ExperimentConfig(
            edge="bottom", alpha_grid=(0.4, 0.2), lambda_grid=(0.5, 1.0), r_grid=(0, 2, 1),
            replicates=2, n_terms=1000, seed_blocks=1,
        )
        name = "pathwise_r_decreasing"
        (honest,) = [v for v in run_experiment(cfg).verdicts if v.name == name]
        assert honest.passed
        real = getattr(limits, sample)

        def scaled(arr, *rest):
            # Scale by 10**r along the r axis; r is the second-to-last argument of both.
            out, r = real(arr, *rest), np.asarray(rest[-2], dtype=float)
            return out * (10.0 ** r).reshape(r.shape + (1,) * (np.ndim(out) - r.ndim))

        monkeypatch.setattr(limits, sample, scaled)
        (grown,) = [v for v in run_experiment(cfg).verdicts if v.name == name]
        assert not grown.passed

    def test_every_row_draws_from_block_hashed_words(self, monkeypatch):
        # Edge-bottom seeds through iter_arrivals like every other stream:
        # each replicate's PCG64 words come hashed from its block.
        from subortrim import pointproc

        seen = []
        real = pointproc.sample_arrivals

        def spy(seed, n_terms, *, seed_words=None):
            seen.append((seed, seed_words))
            return real(seed, n_terms, seed_words=seed_words)

        monkeypatch.setattr(pointproc, "sample_arrivals", spy)
        cfg = ExperimentConfig(
            edge="bottom", alpha_grid=(0.4, 0.2), lambda_grid=(1.0,), r_grid=(0,),
            replicates=3, n_terms=1000, seed_blocks=1,
        )
        run_experiment(cfg)
        assert [seed for seed, _ in seen] == derive_seed(_edge_root(cfg), np.arange(3))
        for seed, words in seen:
            assert words is not None
            want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(words, want)

    def test_needs_decreasing_alpha(self):
        with pytest.raises(ValueError, match="decreasing"):
            ExperimentConfig(
                edge="bottom",
                alpha_grid=(0.1, 0.2, 0.4),
                replicates=3,
                n_terms=1000,
            )
        # Only edge-bottom reads the grid as a path toward alpha = 0.
        assert _tiny("left", alpha_grid=(0.1, 0.2, 0.4)).alpha_grid == (0.1, 0.2, 0.4)


class TestFidiEdge:
    def test_small_run(self):
        cfg = ExperimentConfig(edge="fidi", replicates=300, n_terms=1000)
        report = run_experiment(cfg)
        # 12 grid queries x 2 ranks
        assert len(report.rows) == 24
        for row in report.rows:
            assert row.alpha == 1.0
            assert float(row.t).is_integer() and 1 <= row.t <= 12
            assert row.ks_stat == pytest.approx(abs(row.aux1 - row.aux2), abs=1e-15)
            assert 0.0 <= row.aux1 <= 1.0
        names = [v.name for v in report.verdicts]
        assert "n1_reduction_exact" in names
        assert sum(n.startswith("fidi_query") for n in names) == 24
        n1 = next(v for v in report.verdicts if v.name == "n1_reduction_exact")
        assert n1.passed

    def test_block_counts_match_per_replicate_loop(self):
        # Replicates 100..700: four full counting blocks and a partial one.
        cfg = ExperimentConfig(edge="fidi", replicates=700, n_terms=1000)
        root = _edge_root(cfg)
        want = np.zeros((len(FIDI_QUERY_GRID), 2), dtype=np.int64)
        for rep in range(100, 700):
            arr = sample_arrivals(derive_seed(root, rep), _FIDI_DEPTH)
            for qi, q in enumerate(FIDI_QUERY_GRID):
                counts = [
                    int(np.sum((arr.marks <= lam) & (arr.arrivals < 1.0 / y)))
                    for lam, y in zip(q.lambdas, q.levels)
                ]
                want[qi, 0] += max(counts) == 0
                want[qi, 1] += max(counts) <= 1
        hits, depth_ok = _fidi_task((cfg, 100, 700))
        assert depth_ok
        np.testing.assert_array_equal(hits, want)

    def test_shallow_ladder_violates_depth_bound(self, monkeypatch):
        from subortrim import experiments

        # A 4-arrival ladder ends below 8 in about 96% of replicates.
        monkeypatch.setattr(experiments, "_FIDI_DEPTH", 4)
        cfg = ExperimentConfig(edge="fidi", replicates=50, n_terms=1000)
        with pytest.raises(RuntimeError, match="fidi ladder depth bound violated"):
            run_experiment(cfg)


class TestDeterminismAndParallel:
    def test_rerun_is_bitwise_identical(self):
        cfg = ExperimentConfig(edge="fidi", replicates=100, n_terms=1000)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.csv_text() == b.csv_text()
        assert [v.name for v in a.verdicts] == [v.name for v in b.verdicts]

    def test_jobs_do_not_change_bytes(self):
        base = dict(
            edge="bottom",
            alpha_grid=(0.4, 0.2),
            lambda_grid=(1.0,),
            r_grid=(0,),
            replicates=4,
            n_terms=1000,
            seed_blocks=1,
        )
        serial = run_experiment(ExperimentConfig(**base, jobs=1))
        parallel = run_experiment(ExperimentConfig(**base, jobs=2))
        assert serial.csv_text() == parallel.csv_text()

    def test_left_jobs_do_not_change_bytes(self):
        base = dict(
            edge="left", alpha_grid=(0.5, 0.3), r_grid=(0, 1), t_grid=(1.0, 1e-3),
            lambda_grid=(1.0,), replicates=1000, seed_blocks=1,
        )
        serial = run_experiment(ExperimentConfig(**base, jobs=1))
        parallel = run_experiment(ExperimentConfig(**base, jobs=2))
        assert serial.csv_text() == parallel.csv_text()
        assert serial.verdicts == parallel.verdicts

    def test_fidi_jobs_do_not_change_bytes(self):
        # 600 replicates: chunks of 150 (jobs=1: a full counting block and a
        # partial one) and 75 (jobs=2: one partial block).
        base = dict(edge="fidi", replicates=600, n_terms=1000)
        serial = run_experiment(ExperimentConfig(**base, jobs=1))
        parallel = run_experiment(ExperimentConfig(**base, jobs=2))
        assert serial.csv_text() == parallel.csv_text()

    def test_diagnostics_jobs_do_not_change_bytes(self):
        # Diagnostics run in the calling process whatever jobs is.
        serial = run_experiment(_tiny("diagnostics", jobs=1))
        parallel = run_experiment(_tiny("diagnostics", jobs=2))
        assert serial.csv_text() == parallel.csv_text()
        assert serial.verdicts == parallel.verdicts

    def test_csv_parses_back(self):
        cfg = ExperimentConfig(edge="fidi", replicates=50, n_terms=1000)
        report = run_experiment(cfg)
        reader = csv.DictReader(io.StringIO(report.csv_text()))
        rows = list(reader)
        assert reader.fieldnames == CSV_HEADER.split(",")
        assert len(rows) == len(report.rows)
        assert all(r["ms_elapsed"] == "0" for r in rows)
        assert float(rows[0]["ks_stat"]) == report.rows[0].ks_stat
        assert math.isnan(float(rows[0]["p_value"]))  # analytic rows carry no KS p


_DISPATCH_CONFIGS = {
    "left": dict(alpha_grid=(0.5,), t_grid=(1e-2,), lambda_grid=(1.0,), r_grid=(0,)),
    "right": dict(t_grid=(1e-2,), lambda_grid=(1.0,), level_grid=(1.0,), r_grid=(0,)),
    "bottom": dict(alpha_grid=(0.4, 0.2), lambda_grid=(1.0,), r_grid=(0,)),
    "fidi": dict(replicates=60),
    "diagnostics": {},
}


class TestDispatch:
    @pytest.mark.parametrize("edge", sorted(_DISPATCH_CONFIGS))
    def test_each_edge_is_routed_filled_and_timed(self, edge):
        cfg = _tiny(edge, **_DISPATCH_CONFIGS[edge])
        report = run_experiment(cfg)
        assert report.edge == cfg.edge and report.config is cfg
        assert report.rows and report.verdicts
        assert all(row.edge.split(":")[0] in (edge, "diag") for row in report.rows)
        assert isinstance(report.total_ms, int) and report.total_ms >= 0


class TestRestrictConsistency:
    def test_batched_kernel_honours_mark_filter(self):
        # Jumps 4, 2, 1, 0.5 with only 2 and 1 kept: trimming r of the kept
        # jumps leaves 3 or 1, and the compensation term adds to the sum.
        log_j = np.log([[4.0, 2.0, 1.0, 0.5]])
        keep = np.array([[False, True, True, False]])
        none, comp = np.array([-np.inf]), np.log([0.25])
        for r, c, expected in ((0, none, 3.0), (1, none, 1.0), (0, comp, 3.25)):
            got = trimmed_log_sums(log_j, keep, r, c)[0]
            assert got == pytest.approx(math.log(expected), abs=1e-15)
        with pytest.raises(ValueError, match="deepen"):
            trimmed_log_sums(log_j, keep, 2, none)


# sha256 of the CSV text of small edge runs.  The right digest was recorded
# before the trimmed-sum kernels moved into pointproc and the edges began to
# invert once per horizon; the fidi and bottom digests before fidi counted
# over blocks of replicates and edge-bottom took the alpha grid in one coupled
# call.  The left digests were re-recorded when edge-left moved to one task
# per (alpha, block) whose streams serve every (r, lambda): both configs hold
# several (r, lambda) slices, and only the first slice kept its seeds.  The
# right digest was re-recorded when the reciprocal-tail rank CDF became the
# finite Poisson sum instead of scipy's incomplete gamma function: its KS
# statistics and p-values moved in the last bits (0.026766583771753172 ->
# 0.026766583771753227), every verdict unchanged.  The bottom-multi-node
# digest was recorded before the sorted log-sum-exp summed its row node by
# node: its 1e5- and 2e5-term restricted ladders span several sum nodes.
# The right-log and fidi-partial-block digests were re-recorded when one
# rank-r recursion replaced the rank-2 one: the rank-2 analytic values
# (aux1) and their distances to Monte Carlo (ks_stat) moved in the last
# bits, at most 4.4e-16, with every verdict unchanged.  The diagnostics
# digest was re-recorded when the CSV began to quote a cell that holds a
# comma: its one const(2,0.5) row now reads "const(2,0.5)".
PINNED_CSV_SHA256 = {
    "left-stable": "006d20b691b6f368a62099d20e5c2991b16199d3ca73cbb7b4257030676ead52",
    "left-rational": "45648938e5bd8b5bccbf26271631f651792665ad454f6f178f8a0135215ed9f3",
    "right-log": "75241ab4d805ee8eedb126056896cf9f5ea6097b81c2ea978885b18f1413dc38",
    "fidi-partial-block": "d88aff057ee68f5826caeaf214ef907257605b6faadd6f74b5d2e810d3e211e0",
    "bottom-mixed-r": "c349a55757de97a1be54bd5699d86b12f4e0b0b0afd52e529ce09df146edc5f0",
    "bottom-multi-node": "28731a29f5687f5bb3c3fb1bcda2686a6412ad82083041957db1be8f87433cf8",
    "diagnostics": "cabc887b2084f44de50178b66466856b43447b2da166d37fa6e0554fc2170d0b",
}
PINNED_CSV_CONFIGS = {
    "left-stable": dict(
        edge="left", tail="stable", alpha_grid=(0.5,), r_grid=(0, 1), t_grid=(1.0, 1e-3),
        lambda_grid=(0.5, 1.0), replicates=1000, seed_blocks=1,
    ),
    "left-rational": dict(
        edge="left", tail="rational", alpha_grid=(0.3,), r_grid=(0, 2), t_grid=(1e-2, 1e-5),
        lambda_grid=(0.75,), replicates=1000, seed_blocks=2,
    ),
    "right-log": dict(
        edge="right", tail="log", r_grid=(0, 1), t_grid=(1e-2, 1e-4), lambda_grid=(0.5, 1.0),
        level_grid=(1.0, 2.0), replicates=1000, seed_blocks=1,
    ),
    # 1100 replicates: four chunks of 275, each two full counting blocks and a partial one.
    "fidi-partial-block": dict(edge="fidi", replicates=1100),
    "bottom-mixed-r": dict(
        edge="bottom", alpha_grid=(0.4, 0.2, 0.1), r_grid=(0, 2, 1), lambda_grid=(0.5, 1.0),
        replicates=3, n_terms=20_000,
    ),
    "bottom-multi-node": dict(
        edge="bottom", r_grid=(0, 2, 1), lambda_grid=(0.5, 1.0), replicates=2, n_terms=200_000,
    ),
    "diagnostics": dict(edge="diagnostics", replicates=5),
}
# sha256 of repr(report.plots) for pinned configs run with plot=True, recorded
# before the horizon sweep re-indexed the plot slices by position.
PINNED_PLOTS_SHA256 = {
    "left-stable": "b89f566112dd30cb370b925903ee25bd28b6c98f17c87389f4ed82e32b54ae7b",
    "right-log": "09f6fbf2cd63e7f6df603866acec667d8c393eea628caf321410c775812f2c37",
}

# sha256 of repr([(name, passed, detail), ...]) over each pinned config's
# verdicts in report order, recorded before edge-left and edge-right shared
# one KS-row builder and fidi and right:fidi one Monte Carlo check.
PINNED_VERDICTS_SHA256 = {
    "left-stable": "e4723c06390583ff3d8bdc01ff5a6b2400dde3429f81c67f5c1c1a7969e54668",
    "left-rational": "a693f8900552689ea006fcc1d0b4fce8af112e85c386a6de2c9dd0ff4fa0e7ce",
    "right-log": "f16d04d2485c9af2d425ca24ed13e22102f7b9fa0a846ef9a006078532cdd342",
    "fidi-partial-block": "a75e7f1612b0c14f0c827cf5c428c85b89922d4469260cd64ed0b23babf85eb0",
    "bottom-mixed-r": "1d0f70e98cf677d21cd2af200d3de633d361bae0ad09efbb6f747e1f64dc2dee",
    "bottom-multi-node": "492261c7c5a91dab4b398151fe4154ac106043efe39cab3e75bc2d710927c6e8",
    "diagnostics": "16636b11e1d1a1fa3bc79f6c75498ae74fa2ec9cd5a5f7c0baacf8af557e4a4b",
}


@functools.cache
def _pinned_report(name: str) -> ExperimentReport:
    return run_experiment(ExperimentConfig(**PINNED_CSV_CONFIGS[name]))


class TestPinnedCsv:
    @pytest.mark.parametrize("name", sorted(PINNED_CSV_SHA256))
    def test_csv_digest(self, name):
        report = _pinned_report(name)
        digest = hashlib.sha256(report.csv_text().encode("utf-8")).hexdigest()
        assert digest == PINNED_CSV_SHA256[name]

    @pytest.mark.parametrize("name", sorted(PINNED_CSV_SHA256))
    def test_verdict_names_are_unique(self, name):
        # Readers key verdicts by name, so a repeated name hides a verdict.
        names = [v.name for v in _pinned_report(name).verdicts]
        assert names and len(set(names)) == len(names)

    @pytest.mark.parametrize("name", sorted(PINNED_PLOTS_SHA256))
    def test_plot_digest(self, name):
        report = run_experiment(ExperimentConfig(**PINNED_CSV_CONFIGS[name], plot=True))
        digest = hashlib.sha256(repr(report.plots).encode("utf-8")).hexdigest()
        assert digest == PINNED_PLOTS_SHA256[name]

    @pytest.mark.parametrize("name", sorted(PINNED_VERDICTS_SHA256))
    def test_verdict_digest(self, name):
        verdicts = [(v.name, v.passed, v.detail) for v in _pinned_report(name).verdicts]
        digest = hashlib.sha256(repr(verdicts).encode("utf-8")).hexdigest()
        assert digest == PINNED_VERDICTS_SHA256[name]


class TestStrictOutput:
    """Every report reads back under strict parsers: its CSV and its JSON summary."""

    @pytest.mark.parametrize("name", [*sorted(PINNED_CSV_CONFIGS), "left-const"])
    def test_csv_and_summary_parse_strictly(self, name):
        if name == "left-const":  # str(tail) is const(2,0.5): its cell holds a comma
            report = run_experiment(
                ExperimentConfig(
                    edge="left", tail="const(2)", alpha_grid=(0.5,), t_grid=(1e-2,),
                    lambda_grid=(1.0,), r_grid=(0,), replicates=1000, seed_blocks=1,
                )
            )
        else:
            report = _pinned_report(name)
        reader = csv.DictReader(io.StringIO(report.csv_text()))
        records = list(reader)
        assert reader.fieldnames == CSV_HEADER.split(",")
        assert len(records) == len(report.rows)
        for record, row in zip(records, report.rows):
            assert None not in record and None not in record.values()  # 13 cells
            assert record["tail"] == row.tail
        json.dumps(report.summary(), allow_nan=False)


class TestReportNames:
    # Grid values that agree to six significant digits print alike under
    # ``:g``; their verdict and plot names must still differ.
    @pytest.mark.parametrize(
        "kw",
        [
            dict(edge="left", alpha_grid=(0.5,), lambda_grid=(0.5, 0.5000001)),
            dict(edge="left", alpha_grid=(0.5, 0.5000001), lambda_grid=(1.0,)),
            dict(edge="right", lambda_grid=(0.5, 0.5000001), level_grid=(1.0, 2.0)),
            dict(edge="bottom", lambda_grid=(0.9999999, 1.0), replicates=2),
        ],
        ids=["left-lambda", "left-alpha", "right-lambda", "bottom-lambda"],
    )
    def test_near_equal_grid_values_keep_names_unique(self, kw):
        cfg = dict(t_grid=(1.0, 1e-3), r_grid=(0,), replicates=1000, seed_blocks=1, plot=True)
        report = run_experiment(ExperimentConfig(**{**cfg, **kw}))
        names = [v.name for v in report.verdicts]
        plots = [p.name for p in report.plots]
        assert len(set(names)) == len(names)
        assert len(plots) == 2 and len(set(plots)) == 2

    def test_short_labels_unchanged(self):
        assert experiments._label(1.0) == "1"
        assert experiments._label(0.25) == "0.25"
        assert experiments._label(1e-8) == "1e-08"
        assert experiments._label(0.5000001) == "0.5000001"
        assert experiments._label(0.9999999) == "0.9999999"


class TestPlotHorizon:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(edge="left", tail="rational", alpha_grid=(0.3,)),
            dict(edge="right", level_grid=(1.0,)),
        ],
        ids=["left", "right"],
    )
    def test_plots_show_the_smallest_horizon_in_any_grid_order(self, kw):
        # Plots of (1e-1, 1e-4), (1e-4, 1e-1) and (1e-4,) alone all show t = 1e-4.
        def plots(t_grid):
            cfg = ExperimentConfig(
                **kw, t_grid=t_grid, lambda_grid=(1.0,), r_grid=(0,), replicates=1000,
                seed_blocks=1, plot=True,
            )
            return run_experiment(cfg).plots

        alone = plots((1e-4,))
        assert plots((1e-1, 1e-4)) == alone
        assert plots((1e-4, 1e-1)) == alone

    def test_right_curve_spans_the_finite_samples(self):
        # Under the log tail the tail function is 0 beyond 1, so at t = 1 about
        # a fifth of the z samples are infinite.
        cfg = ExperimentConfig(
            edge="right", tail="log", t_grid=(1.0,), lambda_grid=(1.0,), level_grid=(1.0,),
            r_grid=(0,), replicates=1000, seed_blocks=1, plot=True,
        )
        (plot,) = run_experiment(cfg).plots
        samples = np.array(plot.samples)
        finite = samples[np.isfinite(samples)]
        assert 0 < finite.size < samples.size and np.all(samples[finite.size :] == np.inf)
        assert plot.curve_x[0] == finite[0] and plot.curve_x[-1] == finite[-1]
        assert np.all(np.isfinite(plot.curve_y))
