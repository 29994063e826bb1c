"""Config parsing, the Monte-Carlo cell/grid runner, and the CLI."""

import csv
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsskm import (
    ConfigError,
    HarnessConfig,
    InferenceWindowError,
    RngStream,
    draw_balanced_rss,
    parse_config,
)
from rsskm.harness import DesignPoint, prepare_model, run_cell, run_grid
from rsskm.models import (
    AftModel,
    WeibullModel,
    asymptotic_km_variance,
    censoring_for_fraction,
    dell_clutter_sigma,
)
from rsskm import bootstrap, cli, harness, models
from rsskm.cli import main
from rsskm.rss import rss_mean
from rsskm.sampling import draw_samples
from rsskm.survival import SortedSample
import oracles
from oracles import order_statistic_survival

EXP = WeibullModel()


# --------------------------------------------------------------------------
# config


def write_config(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = HarnessConfig()
        assert cfg.model == "aft"
        assert cfg.k == [2, 4, 6, 8, 10]
        assert cfg.b_mc == 2000

    def test_parse_overrides(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, """
            # comment line
            model = weibull
            k = 2, 4
            m = 10
            rho = 0.5 0.9   # trailing comment
            p_cens = 0
            b_mc = 100
            seed = 3
        """))
        assert cfg.model == "weibull"
        assert cfg.k == [2, 4] and cfg.m == [10]
        assert cfg.rho == [0.5, 0.9]
        assert (cfg.b_mc, cfg.seed) == (100, 3)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "model = weibull\nk = 2, 4\nseed = 3\n"
        plain = parse_config(write_config(tmp_path, text))
        marked = tmp_path / "bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_config(str(marked)) == plain
        assert plain.model == "weibull"

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_config(tmp_path, "model = aft\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r":2: field 'bogus'"):
            parse_config(path)

    def test_bad_value_reports_field(self, tmp_path):
        with pytest.raises(ConfigError, match="field 'b_mc'"):
            parse_config(write_config(tmp_path, "b_mc = many\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="unreadable"):
            parse_config(str(tmp_path / "absent.txt"))

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="rho"):
            parse_config(write_config(tmp_path, "rho = 0, 0.5\n"))
        with pytest.raises(ConfigError, match="p_cens"):
            parse_config(write_config(tmp_path, "p_cens = 1.0\n"))
        for line in ("nu = nan", "beta = inf", "theta1 = -inf"):
            key = line.split()[0]
            with pytest.raises(ConfigError, match=f"field '{key}': must be finite"):
                parse_config(write_config(tmp_path, line + "\n"))

    @pytest.mark.parametrize("key", ["k", "m"])
    def test_size_below_one_names_its_key(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"field '{key}': must be >= 1$"):
            parse_config(write_config(tmp_path, f"{key} = 2, 0\n"))

    def test_obsolete_keys_are_ignored(self, tmp_path):
        # b_true and n_sets fed the secondary MC run and the mixing matrix
        cfg = parse_config(write_config(tmp_path, "b_true = 0\nn_sets = 0\n"))
        assert cfg == HarnessConfig()
        with pytest.raises(ConfigError, match="field 'n_sets'"):
            parse_config(write_config(tmp_path, "n_sets = many\n"))


# --------------------------------------------------------------------------
# eval times and model preparation


def eval_times(design):
    """The times a cell evaluates at: S(t) = level for each of its levels."""
    return [design.model.quantile(level) for level in design.eval_levels]


class TestEvalTimes:
    def test_exponential_median(self):
        assert EXP.quantile(0.5) == pytest.approx(math.log(2))

    def test_aft_reference_times(self):
        times = [AftModel().quantile(level) for level in (0.5, 0.1)]
        assert times[0] == pytest.approx(1.0, abs=1e-12)
        assert times[1] == pytest.approx(7.30, abs=0.05)


class TestPrepareModel:
    def test_weibull_noise_follows_closed_form(self):
        model = prepare_model(EXP, 0.5)
        want = math.sqrt(dell_clutter_sigma(EXP.lifetime_variance, 0.5))
        assert model.sigma_z == pytest.approx(want)

    def test_weibull_perfect_ranking(self):
        assert prepare_model(EXP, 1.0).sigma_z == 0.0

    def test_aft_is_calibrated(self):
        model = prepare_model(AftModel(), 0.9)
        assert model.sigma_u is not None and model.sigma_u > 0


# --------------------------------------------------------------------------
# _simulate_batch and run_cell


def arm_shape(design, arm):
    """(k, m) of one arm's samples: k x m for the RSS arm, a set of one of
    n = km units for the SRS arm."""
    return (design.k, design.m) if arm == harness._RSS else (1, design.k * design.m)


def arm_draws(design, n_reps, rng, arm):
    """Per replicate, the (times, events) pair of one arm's draws: chunks of
    max(1, 2^15 // (k m)) replicates, chunk c drawn by one ``draw_samples``
    call from ``rng.child(c, arm)``."""
    k, m = arm_shape(design, arm)
    censoring = censoring_for_fraction(design.model, design.p_cens)
    chunk = max(1, 2**15 // (k * m))
    for c, start in enumerate(range(0, n_reps, chunk)):
        times, events = draw_samples(design.model, k, m, censoring, rng.child(c, arm),
                                     min(chunk, n_reps - start))
        yield from zip(times, events)


def reference_arm(times, samples):
    """``_fit_arm`` outputs from one kernel call per sample, for
    ``samples`` yielding (times, events) pairs; a replicate is degenerate
    at the times from the first at which some rank's whole risk set died."""
    samples = list(samples)
    s, gw = np.zeros((2, len(samples), len(times)))
    degenerate = np.zeros((len(samples), len(times)), dtype=bool)
    for i, sample in enumerate(samples):
        fit = SortedSample(*sample).product_limit()
        s[i] = rss_mean(fit.survival_at(times))
        gw[i] = rss_mean(fit.greenwood_at(times), 2)
        degenerate[i] = np.asarray(times) >= oracles.exhausted_at(*sample).min()
    return s, gw, degenerate


FOUR_LEVELS = (0.75, 0.5, 0.25, 0.1)
ARMS = [pytest.param(harness._RSS, id="rss"), pytest.param(harness._SRS, id="srs")]


def assert_batches_equal(got, want):
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b, strict=True)


class TestSimulateBatch:
    JUDGED_AFT = DesignPoint(prepare_model(AftModel(), 0.5), 3, 5, 0.5, 0.3, FOUR_LEVELS)
    # k >= 8: a pairwise rank sum would differ from the rank-order one
    JUDGED_WEIBULL = DesignPoint(prepare_model(EXP, 0.9), 9, 7, 0.9, 0.3, FOUR_LEVELS)

    @pytest.mark.parametrize("arm", ARMS)
    def test_one_replicate_chunks_reproduce_per_replicate_draws(self, monkeypatch, arm):
        # replicate i drawn on its own from rng.child(i, arm)
        monkeypatch.setattr(harness, "_BUDGET", 1)
        design, n_reps, rng = self.JUDGED_AFT, 25, RngStream(3, 1)
        times = eval_times(design)
        censoring = censoring_for_fraction(design.model, design.p_cens)
        k, m = arm_shape(design, arm)
        samples = [draw_balanced_rss(design.model, k, m, censoring, rng.child(i, arm))
                   for i in range(n_reps)]
        got = harness._fit_arm(design, n_reps, rng, times, arm)
        assert_batches_equal(got, reference_arm(times, [(s.times, s.events) for s in samples]))

    # both arms of a cell hold chunks of 2^15 // 63 replicates at n = 63,
    # whichever sampler draws them
    @pytest.mark.parametrize("b_mc", [lambda chunk: 2, lambda chunk: chunk + 1,
                                      lambda chunk: 2 * chunk + 43],
                             ids=["two", "chunk-plus-one", "non-multiple"])
    @pytest.mark.parametrize("arm", ARMS)
    @pytest.mark.parametrize("design, times", [
        (JUDGED_WEIBULL, None),
        (JUDGED_WEIBULL, [0.5]),
        (DesignPoint(prepare_model(AftModel(), 0.5), 9, 7, 0.5, 0.3, FOUR_LEVELS), None),
        (DesignPoint(prepare_model(EXP, 1.0), 9, 7, 1.0, 0.3, FOUR_LEVELS), None),
    ], ids=["judged-weibull", "judged-weibull-one-time", "aft", "perfect-weibull"])
    def test_chunks_match_one_kernel_call_per_replicate(self, design, times, arm, b_mc):
        rng = RngStream(6, 2)
        chunk = harness._BUDGET // (7 * 9)
        assert chunk > 2
        n_reps = b_mc(chunk)
        if times is None:
            times = eval_times(design)
        got = harness._fit_arm(design, n_reps, rng, times, arm)
        assert_batches_equal(got, reference_arm(times, arm_draws(design, n_reps, rng, arm)))
        assert got[0].shape == (n_reps, len(times))

    @pytest.mark.parametrize("given", [False, True], ids=["both-arms", "given-srs-arm"])
    def test_each_chunk_is_one_draw_of_its_stream(self, monkeypatch, given):
        # 2 chunks + 43 per arm; a given SRS arm is read, not drawn
        design, rng = self.JUDGED_WEIBULL, RngStream(6, 5)
        chunk = harness._BUDGET // (7 * 9)
        n_reps = 2 * chunk + 43
        srs = harness._simulate_arm(design, n_reps, rng, [0.5], harness._SRS) if given else None
        calls = []

        def recording(model, k, m, censoring, stream, reps):
            calls.append((k, m, stream, reps))
            return draw_samples(model, k, m, censoring, stream, reps)

        monkeypatch.setattr(harness, "draw_samples", recording)
        harness._simulate_batch(design, n_reps, rng, [0.5], srs)
        arms = [(9, 7, harness._RSS)] + ([] if given else [(1, 63, harness._SRS)])
        assert calls == [(k, m, rng.child(c, arm), size) for k, m, arm in arms
                         for c, size in enumerate([chunk, chunk, 43])]

    def test_arms_pair_by_replicate(self):
        # the paired batch reduces each arm's replicates in replicate order,
        # and n_degenerate counts the replicates where either arm has a
        # degenerate curve at each time
        design, rng = DesignPoint(EXP, 2, 3, 1.0, 0.0, FOUR_LEVELS), RngStream(6, 6)
        times = eval_times(design)
        n_reps = 2**15 // 6 + 9
        rss, srs, n_degenerate = harness._simulate_batch(design, n_reps, rng, times)
        arms = [harness._fit_arm(design, n_reps, rng, times, arm)
                for arm in (harness._RSS, harness._SRS)]
        for got, (s, gw, degenerate) in zip((rss, srs), arms):
            np.testing.assert_array_equal(got.degenerate, degenerate, strict=True)
            for j in range(len(times)):
                assert got.mean_s[j] == np.mean(s[:, j])
                assert got.v_mc[j] == np.var(s[:, j], ddof=1)
                assert got.mean_gw[j] == np.mean(gw[:, j])
        want = list(np.sum(arms[0][2] | arms[1][2], axis=0))
        assert list(n_degenerate) == want and 0 < want[0] < want[-1] < n_reps


class TestRunCell:
    def test_record_fields_and_ratios(self):
        design = DesignPoint(EXP, 2, 15, 1.0, 0.0, (0.5, 0.25))
        columns = run_cell(design, 200, RngStream(5, 0))
        assert {len(values) for values in columns.values()} == {2}
        v_rss, v_srs = columns["v_rss_mc"], columns["v_srs_mc"]
        assert columns["re_mc"] == pytest.approx(v_srs / v_rss)
        assert columns["re_gw"] == pytest.approx(columns["mean_gw_srs"] / columns["mean_gw_rss"])
        assert np.all(v_rss >= 0) and np.all(v_srs >= 0)
        assert list(columns["seed"]) == [5, 5]

    def test_deterministic(self):
        design = DesignPoint(EXP, 2, 10, 1.0, 0.1, (0.5,))
        a = run_cell(design, 100, RngStream(8, 3))
        b = run_cell(design, 100, RngStream(8, 3))
        assert list(a) == list(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], strict=True)

    def test_summaries_are_the_per_time_reductions_bitwise(self):
        # each mean and variance is the 1-D reduction of one time's
        # replicates, in replicate order; b_mc > 128 reaches numpy's
        # pairwise-summation blocks
        design = DesignPoint(prepare_model(AftModel(), 0.5), 3, 5, 0.5, 0.3, FOUR_LEVELS)
        rng = RngStream(7, 2)
        columns = run_cell(design, 300, rng)
        (s_rss, gw_rss, _), (s_srs, gw_srs, _) = (
            harness._fit_arm(design, 300, rng.child(harness._PRIMARY), eval_times(design), arm)
            for arm in (harness._RSS, harness._SRS))
        for name, reps, reduce in [
            ("mean_s_rss", s_rss, np.mean), ("mean_s_srs", s_srs, np.mean),
            ("mean_gw_rss", gw_rss, np.mean), ("mean_gw_srs", gw_srs, np.mean),
            ("v_rss_mc", s_rss, lambda x: np.var(x, ddof=1)),
            ("v_srs_mc", s_srs, lambda x: np.var(x, ddof=1)),
        ]:
            want = [reduce(reps[:, j]) for j in range(len(FOUR_LEVELS))]
            np.testing.assert_array_equal(columns[name], want)

    def test_k1_collapse_re_true_is_one(self):
        design = DesignPoint(EXP, 1, 30, 1.0, 0.0, (0.5,))
        columns = run_cell(design, 300, RngStream(1, 0))
        assert columns["re_true"][0] == 1.0
        assert columns["re_mc"][0] == pytest.approx(1.0, abs=0.35)

    def test_re_true_does_not_depend_on_the_seed(self):
        design = DesignPoint(prepare_model(AftModel(), 0.5), 3, 5, 0.5, 0.3, (0.75, 0.5))
        a = run_cell(design, 20, RngStream(1, 0))
        b = run_cell(design, 20, RngStream(2, 0))
        assert list(a["re_true"]) == list(b["re_true"])
        assert a["re_mc"][0] != b["re_mc"][0]

    def test_eval_time_outside_window_fails_before_any_replicate(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(harness, "_simulate_batch", must_not_run)
        # at p_cens = 0.5, K = S, so S(t) K(t) = 1e-14 at level 1e-7
        design = DesignPoint(EXP, 2, 5, 1.0, 0.5, (0.5, 1e-7))
        with pytest.raises(InferenceWindowError, match="outside inference window"):
            run_cell(design, 4000, RngStream(0))

    def test_judged_law_is_tabulated_once_per_cell(self, monkeypatch):
        # re_true reads one k = 1 table for the SRS kernel and one judged
        # table at the cell's times, then every chunk of the sampler reads
        # one judged-rank table at no times
        models._judged_law.cache_clear()
        calls = []
        tabulate = models._tabulate_judged_law

        def counting(model, k, times):
            calls.append((k, len(times)))
            return tabulate(model, k, times)

        monkeypatch.setattr(models, "_tabulate_judged_law", counting)
        design = DesignPoint(prepare_model(WeibullModel(1.5), 0.7), 10, 5, 0.7, 0.3, (0.75, 0.5))
        run_cell(design, 3 * harness._BUDGET // (5 * 10), RngStream(1))
        assert calls == [(1, 2), (10, 2), (10, 0)]

    def test_weibull_re_true_uses_analytic_kernels(self):
        design = DesignPoint(EXP, 4, 10, 1.0, 0.0, (0.5,))
        re_true = run_cell(design, 50, RngStream(2, 0))["re_true"][0]
        # perfect-ranking k=4 exponential at the median: known kernel ratio
        vals = [order_statistic_survival(0.5, 4, r, 0.0) for r in (1, 2, 3, 4)]
        want = 0.25 / np.mean([s * (1 - s) for s in vals])
        assert re_true == pytest.approx(want, rel=1e-6)

    def test_n_degenerate_counts_replicates_per_time(self):
        # m=3 exhausts risk sets often; the reference refits every curve of
        # every replicate of the same chunk draws (primary branch 0, chunk
        # c, RSS 0 / SRS 1)
        design = DesignPoint(EXP, 2, 3, 1.0, 0.0, (0.75, 0.5, 0.25, 0.1))
        b_mc = 200
        columns = run_cell(design, b_mc, RngStream(4, 0))
        counts, times = columns["n_degenerate"], columns["t"]
        assert all(0 <= c <= b_mc for c in counts)
        by_time = counts[np.argsort(times)]
        assert np.all(np.diff(by_time) >= 0)

        total = 0
        rng = RngStream(4, 0).child(0)
        for rss, srs in zip(arm_draws(design, b_mc, rng, harness._RSS),
                            arm_draws(design, b_mc, rng, harness._SRS), strict=True):
            curves = [SortedSample(t[None], e[None]).product_limit() for t, e in zip(*rss)]
            curves.append(SortedSample(*srs).product_limit())
            # unweighted S-hat is 0 exactly where the whole risk set died
            total += sum(any(c.survival_at(t)[0] == 0 for c in curves)
                         for t in times)
        assert total > 0 and sum(counts) == total

    def test_b_mc_too_small(self):
        with pytest.raises(Exception, match="b_mc"):
            run_cell(DesignPoint(EXP, 2, 5, 1.0, 0.0, (0.5,)), 1, RngStream(0))

    def test_b_mc_too_large_to_hold_fails_before_any_work(self, monkeypatch):
        # numpy refuses an array of 10**20 replicates at once
        def must_not_run(*args, **kwargs):
            raise AssertionError("an analytic column or a replicate was computed")

        monkeypatch.setattr(harness, "_true_columns", must_not_run)
        monkeypatch.setattr(harness, "draw_samples", must_not_run)
        with pytest.raises(models.ParameterError, match="10+ replicates are too many to hold"):
            run_cell(DesignPoint(EXP, 2, 5, 1.0, 0.0, (0.5,)), 10**20, RngStream(0))


# --------------------------------------------------------------------------
# run_grid + CLI

TINY_CONFIG = """
model = weibull
k = 1, 2
m = 5
rho = 0.5, 1.0
p_cens = 0, 0.3
levels = 0.5
b_mc = 30
b_true = 10
n_sets = 5000
seed = 11
"""


def read_rows(path):
    with open(path) as fh:
        assert fh.readline().strip() == "# schema_version=2"
        return list(csv.DictReader(fh))


class TestRunGrid:
    def test_rows_and_schema(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TINY_CONFIG))
        out = tmp_path / "grid.csv"
        run_grid(cfg, str(out))
        rows = read_rows(out)
        assert len(rows) == 2 * 2 * 2 * 1  # k x rho x p_cens x levels
        assert "b_true" not in rows[0] and "s_true" not in rows[0]
        assert {r["re_true"] for r in rows if r["k"] == "1"} == {"1"}
        assert rows[0]["model"] == "weibull"
        assert {r["k"] for r in rows} == {"1", "2"}
        for row in rows:
            assert float(row["v_rss_mc"]) >= 0
            assert row["seed"] == "11"

    def test_byte_identical_across_jobs(self, tmp_path):
        # cells that share an SRS arm run in different workers
        cfg = parse_config(write_config(tmp_path, TINY_CONFIG))
        outs = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"grid{jobs}.csv"
            run_grid(cfg, str(out), parallelism=jobs)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("grid, jobs, processes", [
        ("k = 1, 2\nrho = 0.5, 1.0\np_cens = 0, 0.3\n", 3, 3),  # 8 cells
        ("k = 1, 2\nrho = 1.0\np_cens = 0.3\n", 5, 2),  # 2 cells
        ("k = 2\nrho = 1.0\np_cens = 0.3\n", 4, None),  # 1 cell: no pool
    ], ids=["jobs-below-cells", "jobs-above-cells", "one-cell"])
    def test_pool_starts_at_most_one_process_per_cell(
            self, tmp_path, monkeypatch, grid, jobs, processes):
        asked = []

        class RecordingPool:
            """Records the process count and runs each task in this process
            on a pickled copy of its arguments, as a worker receives them."""

            def __init__(self, n):
                asked.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks, chunksize):
                return [fn(*pickle.loads(pickle.dumps(task))) for task in tasks]

        text = f"model = weibull\nm = 5\nlevels = 0.5\nb_mc = 20\nseed = 3\n{grid}"
        cfg = parse_config(write_config(tmp_path, text))
        serial = tmp_path / "serial.csv"
        run_grid(cfg, str(serial))
        monkeypatch.setattr(harness.multiprocessing, "Pool", RecordingPool)
        out = tmp_path / "pooled.csv"
        run_grid(cfg, str(out), parallelism=jobs)
        assert asked == ([] if processes is None else [processes])
        assert out.read_bytes() == serial.read_bytes()

    # (k, m) = (2, 6) and (3, 4) share n = 12, so 16 cells hold 6 SRS arms,
    # each drawn from the first of its cells: cell index
    # ((k_i * 2 + m_i) * 2 + rho_i) * 2 + p_cens_i
    SHARED_ARMS = ("model = weibull\nk = 2, 3\nm = 4, 6\nrho = 0.5, 1.0\np_cens = 0, 0.3\n"
                   "levels = 0.75, 0.5\nb_mc = 30\nseed = 5\n")
    FIRST_OF_ARM = {(8, "0"): 0, (8, "0.3"): 1, (12, "0"): 4, (12, "0.3"): 5,
                    (18, "0"): 12, (18, "0.3"): 13}

    def test_srs_columns_are_shared_by_n_and_p_cens(self, tmp_path):
        out = tmp_path / "grid.csv"
        run_grid(parse_config(write_config(tmp_path, self.SHARED_ARMS)), str(out))
        groups = {}
        for row in read_rows(out):
            groups.setdefault((int(row["n"]), row["p_cens"], row["level"]), []).append(row)
        assert {(n, p) for n, p, _ in groups} == set(self.FIRST_OF_ARM)
        for rows in groups.values():
            assert len(rows) == (4 if rows[0]["n"] == "12" else 2)
            assert len({(r["mean_s_srs"], r["v_srs_mc"], r["mean_gw_srs"]) for r in rows}) == 1
            # the RSS arms are each cell's own
            assert len({r["v_rss_mc"] for r in rows}) == len(rows)

    def test_draws_srs_samples_once_per_n_and_p_cens(self, tmp_path, monkeypatch):
        calls = []

        def recording(model, k, m, censoring, stream, reps):
            calls.append((k, m, stream, reps))
            return draw_samples(model, k, m, censoring, stream, reps)

        monkeypatch.setattr(harness, "draw_samples", recording)
        run_grid(parse_config(write_config(tmp_path, self.SHARED_ARMS)), str(tmp_path / "g.csv"))
        assert [call for call in calls if call[0] == 1] == [
            (1, n, RngStream(5, idx).child(0, 0, 1), 30)
            for (n, _), idx in self.FIRST_OF_ARM.items()]
        assert len(calls) == 16 + 6

    def test_run_cell_reproduces_the_rows_of_the_first_cell_of_each_arm(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, self.SHARED_ARMS))
        out = tmp_path / "grid.csv"
        run_grid(cfg, str(out))
        lines = out.read_text().splitlines()[2:]
        for idx, design in enumerate(harness._grid(cfg)):
            columns = run_cell(design, cfg.b_mc, RngStream(cfg.seed, idx))
            alone = [",".join(map(harness._fmt, row)) for row in zip(*columns.values())]
            # a later cell of an arm draws its own SRS arm when run alone
            first = idx in self.FIRST_OF_ARM.values()
            assert (alone == lines[2 * idx:2 * idx + 2]) == first

    def test_spline_is_built_once_per_judged_model(self, tmp_path, monkeypatch):
        # one judged rho at two k: both cells' kernels and samplers read one
        # score-CDF table, and so does a later kernels run of an equal model
        models._score_cdf.cache_clear()
        knots = []
        spline = models._cubic_spline

        def counting(x, y):
            knots.append(len(x))
            return spline(x, y)

        monkeypatch.setattr(models, "_cubic_spline", counting)
        text = ("model = weibull\nk = 2, 5\nm = 5\nrho = 0.7\np_cens = 0.3\nlevels = 0.5\n"
                "b_mc = 20\nseed = 2\n")
        cfg = parse_config(write_config(tmp_path, text))
        run_grid(cfg, str(tmp_path / "grid.csv"))
        assert knots == [2000]
        harness.run_kernels(cfg, str(tmp_path / "kernels.csv"))
        assert knots == [2000]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TINY_CONFIG))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_grid(cfg, str(a))
        cfg.seed = 99
        run_grid(cfg, str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_empty_grid_is_reported_before_any_work(self, tmp_path):
        out = tmp_path / "grid.csv"
        with pytest.raises(models.ParameterError, match="empty grid"):
            run_grid(HarnessConfig(k=[]), str(out))
        assert not out.exists()

    # k = 1 and 3, judged and perfect Weibull, an AFT cell, p_cens 0 and
    # 0.3; at level 0.999 and m = 3 most replicates never leave S = 1, so
    # zero-variance rows print re_mc = re_gw = nan (and re_mc = 0 where
    # only the SRS arm has zero variance)
    @pytest.mark.parametrize("grid, rows", [
        ("model = weibull\nk = 1, 3\nrho = 0.5, 1.0\np_cens = 0, 0.3\n", [
            "weibull,1,3,3,0.5,0,0.999,0.0010005,0.983333,1,0.00555556,0,0.0037037,0,1,0,0,20,0,2,1.73205",
            "weibull,1,3,3,0.5,0,0.5,0.693147,0.566667,0.466667,0.0830409,0.0865497,0.0555556,0.0555556,1,1.04225,1,20,6,2,1.73205",
            "weibull,1,3,3,0.5,0.3,0.999,0.0010005,1,1,0,0,0,0,1,nan,nan,20,0,2,1.73205",
            "weibull,1,3,3,0.5,0.3,0.5,0.693147,0.508333,0.466667,0.0949561,0.142105,0.0594907,0.0421296,1,1.49654,0.708171,20,7,2,1.73205",
            "weibull,1,3,3,1,0,0.999,0.0010005,1,1,0,0,0,0,1,nan,nan,20,0,2,0",
            "weibull,1,3,3,1,0,0.5,0.693147,0.466667,0.466667,0.0748538,0.0865497,0.0592593,0.0555556,1,1.15625,0.9375,20,6,2,0",
            "weibull,1,3,3,1,0.3,0.999,0.0010005,1,1,0,0,0,0,1,nan,nan,20,0,2,0",
            "weibull,1,3,3,1,0.3,0.5,0.693147,0.533333,0.466667,0.130409,0.142105,0.0458333,0.0421296,1,1.08969,0.919192,20,8,2,0",
            "weibull,3,3,9,0.5,0,0.999,0.0010005,0.994444,1,0.000617284,0,0.000411523,0,1.00012,0,0,20,0,2,1.73205",
            "weibull,3,3,9,0.5,0,0.5,0.693147,0.516667,0.483333,0.0341455,0.0276478,0.01893,0.0248285,1.06213,0.809705,1.31159,20,5,2,1.73205",
            "weibull,3,3,9,0.5,0.3,0.999,0.0010005,1,1,0,0,0,0,1.00012,nan,nan,20,0,2,1.73205",
            "weibull,3,3,9,0.5,0.3,0.5,0.693147,0.480556,0.451195,0.0351771,0.0275337,0.0145833,0.031553,1.05905,0.782718,2.16364,20,11,2,1.73205",
            "weibull,3,3,9,1,0,0.999,0.0010005,1,1,0,0,0,0,1.002,nan,nan,20,0,2,0",
            "weibull,3,3,9,1,0,0.5,0.693147,0.494444,0.483333,0.0110136,0.0276478,0.0111111,0.0248285,1.6,2.51032,2.23457,20,14,2,0",
            "weibull,3,3,9,1,0.3,0.999,0.0010005,1,1,0,0,0,0,1.002,nan,nan,20,0,2,0",
            "weibull,3,3,9,1,0.3,0.5,0.693147,0.447222,0.451195,0.018348,0.0275337,0.00882202,0.031553,1.54749,1.50064,3.57662,20,18,2,0",
        ]),
        ("model = aft\nk = 3\nrho = 0.5\np_cens = 0.3\n", [
            "aft,3,3,9,0.5,0.3,0.999,0.00825174,1,1,0,0,0,0,1.00199,nan,nan,20,0,2,0.402458",
            "aft,3,3,9,0.5,0.3,0.5,1,0.486111,0.463188,0.0233512,0.0318759,0.0115484,0.0250113,1.51141,1.36506,2.16579,20,15,2,0.402458",
        ]),
    ], ids=["weibull-grid", "aft-cell"])
    def test_output_bytes(self, tmp_path, grid, rows):
        cfg = write_config(tmp_path, f"{grid}m = 3\nlevels = 0.999, 0.5\nb_mc = 20\nseed = 2\n")
        out = tmp_path / "grid.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes().decode().split("\n") == [
            "# schema_version=2",
            "model,k,m,n,rho,p_cens,level,t,mean_s_rss,mean_s_srs,v_rss_mc,v_srs_mc,"
            "mean_gw_rss,mean_gw_srs,re_true,re_mc,re_gw,b_mc,n_degenerate,seed,rank_noise_sd",
            *rows,
            "",
        ]


    def test_output_bytes_across_chunks_and_blocks(self, tmp_path):
        # k = 10, m = 50: chunks of 65 replicates, so b_mc = 200 runs 4
        # chunks, the last a partial chunk of 5
        cfg = write_config(tmp_path, "model = aft\nk = 10\nm = 50\nrho = 0.5\n"
                           "p_cens = 0, 0.3\nlevels = 0.75, 0.5, 0.25\nb_mc = 200\nseed = 2\n")
        out = tmp_path / "grid.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes().decode().split("\n")[2:] == [
            "aft,10,50,500,0.5,0,0.75,0.350958,0.75099,0.74977,0.000160322,0.000336208,0.000169496,0.000374561,2.16177,2.09709,2.20985,200,1,2,0.402458",
            "aft,10,50,500,0.5,0,0.5,1,0.50125,0.50006,0.000167053,0.000469383,0.000202187,0.000499066,2.41276,2.80979,2.46834,200,174,2,0.402458",
            "aft,10,50,500,0.5,0,0.25,2.84935,0.25126,0.24721,0.000178505,0.000379212,0.000167197,0.00037144,2.16177,2.12438,2.22157,200,200,2,0.402458",
            "aft,10,50,500,0.5,0.3,0.75,0.350958,0.750072,0.750927,0.000222632,0.000387576,0.00017273,0.000381023,2.14834,1.74088,2.20589,200,6,2,0.402458",
            "aft,10,50,500,0.5,0.3,0.5,1,0.499259,0.501295,0.000213048,0.000608766,0.000218506,0.000526853,2.36131,2.85742,2.41116,200,173,2,0.402458",
            "aft,10,50,500,0.5,0.3,0.25,2.84935,0.25008,0.250588,0.000236694,0.000524256,0.000210135,0.000438968,2.04314,2.21491,2.08898,200,200,2,0.402458",
            "",
        ]


# k = 1 and 3, two m, judged and perfect ranking, with and without censoring
KERNELS_GRID = ("k = 1, 3\nm = 3, 4\nrho = 0.5, 1.0\np_cens = 0, 0.3\nlevels = 0.75, 0.5\n"
                "b_mc = 20\nseed = 2\n")


def written_columns(monkeypatch, tmp_path, command, text):
    """The unrounded columns ``rsskm <command>`` writes for a config, cell by
    cell."""
    written = []
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_write_rows", lambda path, results: written.extend(results))
        out = tmp_path / "unwritten.csv"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    assert not out.exists()
    return written


class TestKernels:
    @pytest.mark.parametrize("model", ["model = aft\n", "model = weibull\nnu = 1.5\n"],
                             ids=["aft", "weibull"])
    def test_columns_shared_with_simulate_are_equal(self, tmp_path, monkeypatch, model):
        cfg = write_config(tmp_path, model + KERNELS_GRID)
        kern, grid = tmp_path / "kern.csv", tmp_path / "grid.csv"
        assert main(["kernels", "--config", cfg, "--out", str(kern)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(grid)]) == 0
        kernels, simulated = read_rows(kern), read_rows(grid)
        keys = ["model", "k", "m", "n", "rho", "p_cens", "level", "t"]
        assert list(kernels[0]) == [*keys, "v_srs_true", "v_rss_true", "re_true",
                                    "rank_noise_sd"]
        shared = [name for name in kernels[0] if name in simulated[0]]
        assert shared == [*keys, "re_true", "rank_noise_sd"]
        assert len(kernels) == len(simulated) == 32
        assert ([[row[name] for name in shared] for row in kernels]
                == [[row[name] for name in shared] for row in simulated])
        # and bit for bit before formatting
        cells = zip(*(written_columns(monkeypatch, tmp_path, command, model + KERNELS_GRID)
                      for command in ("kernels", "simulate")))
        for kernel_cell, simulated_cell in cells:
            for name in shared:
                assert np.array_equal(kernel_cell[name], simulated_cell[name]), name

    def test_perfect_ranking_rows_are_the_perfect_ranking_kernel(self, tmp_path, monkeypatch):
        base = WeibullModel(1.5, 2.0)
        perfect = [columns for columns in written_columns(
            monkeypatch, tmp_path, "kernels", "model = weibull\nnu = 1.5\ntheta1 = 2.0\n"
            + KERNELS_GRID) if columns["rho"][0] == 1.0]
        assert len(perfect) == 8
        for columns in perfect:
            censoring = censoring_for_fraction(base, columns["p_cens"][0])
            want = asymptotic_km_variance(base, censoring, columns["t"], columns["k"][0])
            np.testing.assert_allclose(columns["v_rss_true"], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model", ["model = aft\n", "model = weibull\nnu = 1.5\n"],
                             ids=["aft", "weibull"])
    def test_k1_rows_have_re_true_one(self, tmp_path, monkeypatch, model):
        cells = [columns for columns in written_columns(monkeypatch, tmp_path, "kernels",
                                                        model + KERNELS_GRID)
                 if columns["k"][0] == 1]
        assert len(cells) == 8
        for columns in cells:
            assert list(columns["re_true"]) == [1.0, 1.0]
            np.testing.assert_array_equal(columns["v_srs_true"], columns["v_rss_true"])


# 3 ranks x 4 cycles with ties (that of ``test_estimate_output_bytes``), and
# one without: distinct times in every rank, ranks ending in a death and in
# a censoring
TIED_OBSERVATIONS = (
    "cycle,rank,time,event\n1,1,1.0,1\n1,2,0.5,0\n1,3,1.0,1\n2,1,2.0,1\n"
    "2,2,1.5,1\n2,3,2.0,0\n3,1,2.0,0\n3,2,1.5,1\n3,3,2.5,1\n4,1,3.5,1\n"
    "4,2,4.0,0\n4,3,2.5,0\n")
TIE_FREE_OBSERVATIONS = (
    "cycle,rank,time,event\n1,1,0.3,1\n1,2,1.1,0\n1,3,0.7,1\n2,1,1.9,0\n"
    "2,2,0.4,1\n2,3,2.2,1\n3,1,1.2,1\n3,2,2.6,1\n3,3,0.9,0\n4,1,2.8,1\n"
    "4,2,1.6,0\n4,3,3.1,0\n")
GAMMA_ON_GRID = ["--gamma-shape", "0.25", "--grid", "0.5,1.1,1.9,2.25,3.1,4"]


# --------------------------------------------------------------------------
# observation files for the reader, against the row-by-row reference

OBSERVATION_COLUMNS = ("cycle", "rank", "time", "event")
# fields that make a row bad: one csv and float read as no number (numpy
# strips \x1c-\x1f, float does not), one no column takes, and one over
# csv's field limit
NOT_NUMBERS = ("two", "", "1 2", "1\x1c", "\x1f0", "1\x00")
OUT_OF_RANGE = (("time", "-1"), ("time", "nan"), ("event", "7"), ("rank", "0"),
                ("cycle", "1.5"))
OVERSIZED = "1" * (csv.field_size_limit() + 1)


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


@st.composite
def number_spellings(draw, value, end, styles):
    """``value`` as float reads it: in any notation, and in the ``styles``
    that the file allows, with an underscore between digits ("_"), spaces
    around it (" ") and quotes around it all ('"'), perhaps with a line end
    inside them ("\\n")."""
    text = draw(st.sampled_from([repr(float(value)), f"{value:g}", f"{value:.2e}",
                                 f"+{value:g}", f"00{value:g}"]))
    digits = [i for i in range(1, len(text)) if (text[i - 1] + text[i]).isdigit()]
    if "_" in styles and digits and draw(st.booleans()):
        at = draw(st.sampled_from(digits))
        text = text[:at] + "_" + text[at:]
    if " " in styles:
        pad = st.sampled_from(["", " ", "\t"])
        text = draw(pad) + text + draw(pad)
    if '"' not in styles or not draw(st.booleans()):
        return text
    return quoted(text + (end if "\n" in styles and draw(st.booleans()) else ""))


@st.composite
def observation_files(draw):
    """An observation CSV as (bytes, the readers' block size or None for
    ``cli._BLOCK_ROWS``): a valid file in any column order, with extra
    columns, LF, CRLF or CR line ends, a byte-order mark or not, blank
    lines, quoted fields, spaces around numbers and shuffled rows; or such
    a file with one bad row or header."""
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    styles = draw(st.sets(st.sampled_from('_ "\n')))
    extras = draw(st.lists(st.sampled_from(["id", "note", "x y"]), unique=True, max_size=2))
    header = draw(st.permutations(OBSERVATION_COLUMNS + tuple(extras)))
    extra = st.text(' ab,"\n' if "\n" in styles else ' ab,"', max_size=4).map(
        lambda v: quoted(v) if set(v) & set(',"\r\n') else v)
    records = []
    for r in range(1, k + 1):
        for c in range(1, m + 1):
            values = {"cycle": c, "rank": r, "event": draw(st.integers(0, 1)),
                      "time": draw(st.sampled_from([0.0, 0.5, 1.25, 2.0, 12.5]))}
            records.append({name: draw(number_spellings(values[name], end, styles))
                            if name in values else draw(extra) for name in header})
    records = draw(st.permutations(records))
    bad = draw(st.one_of(st.none(), st.sampled_from(
        ["not-a-number", "out-of-range", "oversized", "undecodable", "short", "repeat",
         "header", "blank-header"])))
    row, other = (draw(st.integers(0, len(records) - 1)) for _ in range(2))
    if bad == "not-a-number":
        records[row][draw(st.sampled_from(OBSERVATION_COLUMNS))] = draw(
            st.sampled_from(NOT_NUMBERS))
    elif bad == "out-of-range":
        name, value = draw(st.sampled_from(OUT_OF_RANGE))
        records[row][name] = value
    elif bad in ("oversized", "undecodable"):
        records[row][draw(st.sampled_from(header))] = (
            OVERSIZED if bad == "oversized" else "@undecodable@")
    elif bad == "repeat":
        records[row].update(rank=records[other]["rank"], cycle=records[other]["cycle"])
    elif bad == "header":
        header = [name for name in header if name != draw(st.sampled_from(OBSERVATION_COLUMNS))]
    lines = [",".join(draw(st.sampled_from([name, quoted(name)])) for name in header)]
    lines += [",".join(record[name] for name in header) for record in records]
    if bad == "short":
        lines[row + 1] = lines[row + 1].rsplit(",", 1)[0]
    for at in draw(st.lists(st.integers(0 if bad == "blank-header" else 1, len(lines)),
                            max_size=6)):
        lines.insert(at, "")
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()
    return data.replace(b"@undecodable@", b"\xff"), draw(st.sampled_from([1, 2, 3, 5, None]))


def long_observation_file():
    """A valid CRLF file of more than ``cli._BLOCK_ROWS`` records, with a
    byte-order mark, a permuted header, an extra column, blank lines, quoted
    fields and some records that span lines."""
    n = cli._BLOCK_ROWS // 2 + 60
    rng = np.random.default_rng(5)
    times, events = np.round(rng.exponential(size=(2, n)), 2), rng.random((2, n)) < 0.7
    lines = ["time,note,event,rank,cycle"]
    for c in range(n):
        for r in range(2):
            note = '"a\r\nb"' if c % 700 == 3 else "x"
            time = f'"{times[r, c]}"' if c % 7 == 0 else f" {times[r, c]} "
            lines.append(f"{time},{note},{int(events[r, c])},{r + 1},{c + 1}")
        if c % 500 == 0:
            lines.append("")
    return b"\xef\xbb\xbf" + "\r\n".join(lines).encode() + b"\r\n"


def read_outcome(read, path):
    """What ``read`` makes of ``path``: the sample's shape, time bits and
    events, or the type and message of its error."""
    try:
        sample = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return sample.times.shape, sample.times.view(np.uint64).tolist(), sample.events.tolist()


def estimate_and_bootstrap(tmp_path, path):
    """The bytes ``estimate`` and ``bootstrap --reps 50`` write for ``path``."""
    est, boot = tmp_path / "est.csv", tmp_path / "boot.csv"
    assert main(["estimate", "--input", path, "--out", str(est)]) == 0
    assert main(["bootstrap", "--input", path, "--out", str(boot), "--reps", "50"]) == 0
    return est.read_bytes(), boot.read_bytes()


class TestCli:
    def test_simulate(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "grid.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len(read_rows(out)) == 8

    def test_simulate_unwritable_out_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: simulate: unwritable output {out}: [Errno 2]")
        assert not (tmp_path / "missing").exists()

    def test_simulate_bad_config_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bogus = 1\n")
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: simulate:")

    @pytest.mark.parametrize("line, field", [
        ("k = 0", "k"), ("k = 2.5", "k"), ("k = 2, -3", "k"), ("k = nan", "k"),
        ("k = two", "k"), ("k =", "k"), ("rho =", "rho"), ("p_cens =", "p_cens"),
        ("levels =", "levels"), ("rho = 0.5, 1.5", "rho"), ("theta1 = nan", "theta1"),
        ("nu = inf", "nu"),
    ], ids=["zero-k", "fractional-k", "negative-k", "nan-k", "word-k", "empty-k", "empty-rho",
            "empty-p-cens", "empty-levels", "rho-above-one", "nan-theta1", "inf-nu"])
    def test_kernels_bad_config_is_reported(self, tmp_path, capsys, line, field):
        out = tmp_path / "k.csv"
        cfg = write_config(tmp_path, f"model = weibull\n{line}\n")
        assert main(["kernels", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: kernels: {cfg}")
        assert f"field '{field}'" in err[0] and not out.exists()

    @pytest.mark.parametrize("text", [
        "k = 2\nrho = 1.0\np_cens = 0, 0.5\nlevels = 1e-7\n",
        "p_cens = 0.999999\n",
    ], ids=["window-error-after-first-row", "censoring-error-before-first-row"])
    def test_kernels_error_leaves_no_file(self, tmp_path, capsys, text):
        out = tmp_path / "k.csv"
        cfg = write_config(tmp_path, "model = weibull\n" + text)
        assert main(["kernels", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: kernels:")
        assert "outside inference window" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command, text, quantity", [
        ("kernels", "model = weibull\nnu = 0.001\nrho = 1.0\nlevels = 0.1\n",
         "quantile at survival level 0.1"),
        ("kernels", "model = weibull\nnu = 0.01\nlevels = 0.5\n", "Weibull lifetime variance"),
        ("simulate", "beta = 600\nlevels = 0.01\n", "exp(s^2) in the AFT ranking-correlation"),
        ("simulate", "beta = 40\np_cens = 0.3\n", "exp(s^2) in the AFT ranking-correlation"),
        ("simulate", "mu = 800\nlevels = 0.75\n", "quantile at survival level 0.75"),
        ("simulate", "mu = 700\nbeta = 10\nsigma_eps = 0\np_cens = 0.3\nlevels = 0.75\n",
         "AFT mean lifetime"),
        # a rho in (0, 1] so small that its ranking noise overflows
        *[(command, f"model = {model}\nrho = 0.5, {rho}\nlevels = 0.5\n", quantity)
          for command in ("simulate", "kernels") for rho in ("1e-300", "1e-160")
          for model, quantity in (
              ("aft", f"(ceiling / rho)^2 in the AFT ranking-noise calibration (rho = {rho})"),
              ("weibull", f"rho^-2 in the Weibull ranking-noise variance (rho = {rho})"))],
        # a ranking noise that calibrates, but whose score-CDF spline overflows
        *[(command, "model = weibull\nnu = 1\nrho = 1e-150\nlevels = 0.5\nb_mc = 20\n",
           "the cubed knot spacing of the Weibull score-CDF spline (ranking-noise sd 1e+150)")
          for command in ("simulate", "kernels")],
    ], ids=["weibull-quantile", "weibull-variance", "aft-ceiling-600", "aft-ceiling-40",
            "aft-quantile", "aft-mean-lifetime",
            *[f"{command}-{model}-rho-{rho}" for command in ("simulate", "kernels")
              for rho in ("1e-300", "1e-160") for model in ("aft", "weibull")],
            "simulate-weibull-spline-rho-1e-150", "kernels-weibull-spline-rho-1e-150"])
    def test_overflowing_model_is_reported(self, tmp_path, capsys, monkeypatch, command, text,
                                           quantity):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(harness, "draw_samples", must_not_run)
        out = tmp_path / "out.csv"
        base = "model = aft\nk = 2\nm = 5\nrho = 0.5\np_cens = 0\nb_mc = 5\n"
        cfg = write_config(tmp_path, base + text)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {command}: {quantity}")
        assert "overflows" in err[0] and not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "kernels"])
    def test_unresolved_score_cdf_is_reported(self, tmp_path, capsys, command):
        # nu 0.3, rho 0.9: F_V rises within a few knots of the score-CDF
        # table, so its spline cannot give the judged law
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, "model = weibull\nnu = 0.3\nk = 4\nm = 5\nrho = 0.9\n"
                                     "p_cens = 0\nlevels = 0.5\nb_mc = 5\n")
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: {command}: the Weibull score-CDF spline cannot resolve the ranking law "
            f"at nu = 0.3")
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("simulate", "model = aft\nk = 1040\nm = 2\nrho = 0.5\np_cens = 0\nb_mc = 5\n"),
        ("kernels", "model = weibull\nk = 1100\nrho = 0.9\np_cens = 0\nlevels = 0.5\n"),
    ], ids=["simulate-k1040", "kernels-k1100"])
    def test_too_large_k_is_reported(self, tmp_path, capsys, command, text):
        # k * C(k - 1, r) overflows a float from k = 1021 on
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        k = 1040 if command == "simulate" else 1100
        assert err == [f"error: {command}: k = {k} is too large: the judged-rank weight "
                       f"k * C(k - 1, r) overflows a float"]
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_simulate_jobs_below_one_is_reported_before_any_work(
            self, tmp_path, capsys, monkeypatch, jobs):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a model was calibrated or a cell ran")

        monkeypatch.setattr(harness, "prepare_model", must_not_run)
        monkeypatch.setattr(harness, "run_cell", must_not_run)
        out = tmp_path / "grid.csv"
        assert main(["simulate", "--config", write_config(tmp_path, TINY_CONFIG),
                     "--out", str(out), f"--jobs={jobs}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: simulate:")
        assert "jobs must be >= 1" in err[0] and not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_simulate_too_many_replicates_is_reported_before_any_work(
            self, tmp_path, capsys, monkeypatch, jobs):
        # 10**20 replicates, which numpy refuses at once, fail before a
        # model is calibrated, a pool starts or a replicate is drawn
        def must_not_run(*args, **kwargs):
            raise AssertionError("a model was calibrated, a pool started or a replicate drawn")

        monkeypatch.setattr(harness, "prepare_model", must_not_run)
        monkeypatch.setattr(harness.multiprocessing, "Pool", must_not_run)
        monkeypatch.setattr(harness, "draw_samples", must_not_run)
        config = TINY_CONFIG.replace("b_mc = 30", f"b_mc = {10**20}")
        out = tmp_path / "grid.csv"
        assert main(["simulate", "--config", write_config(tmp_path, config),
                     "--out", str(out), f"--jobs={jobs}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: simulate:")
        assert f"{10**20} replicates are too many to hold" in err[0] and not out.exists()

    def test_bootstrap_too_many_replicates_is_reported_before_any_replicate(
            self, tmp_path, capsys, monkeypatch, obs_csv):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(bootstrap, "_weight_sums", must_not_run)
        out = tmp_path / "boot.csv"
        assert main(["bootstrap", "--input", obs_csv, "--out", str(out),
                     "--reps", str(10**20)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bootstrap:")
        assert f"{10**20} replicates are too many to hold" in err[0] and not out.exists()

    def test_non_numeric_lists_are_reported(self, tmp_path, capsys, obs_csv):
        assert main(["bootstrap", "--input", obs_csv, "--out", str(tmp_path / "b.csv"),
                     "--grid", "0.5,abc"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: bootstrap:") and "'0.5,abc'" in err[0]

    @pytest.mark.parametrize("shape", ["nan", "0", "-1", "1e308", "inf"])
    def test_bootstrap_gamma_shape_is_checked(self, tmp_path, capsys, monkeypatch, obs_csv,
                                              shape):
        # a shape is > 0, and inf (every weight 1) or small enough that m
        # times it is finite: at m = 15, 1e308 would draw Gamma(inf) totals
        # and write nan; a bad shape is reported before any replicate
        def must_not_run(*args, **kwargs):
            raise AssertionError("a replicate ran")

        if shape != "inf":
            monkeypatch.setattr(bootstrap, "_weight_sums", must_not_run)
        out = tmp_path / "boot.csv"
        code = main(["bootstrap", "--input", obs_csv, "--out", str(out), "--reps", "5",
                     "--gamma-shape", shape])
        err = capsys.readouterr().err.splitlines()
        if shape == "inf":
            assert code == 0 and not err
            with open(out) as fh:
                assert all(float(row["bootstrap_var"]) == 0 for row in csv.DictReader(fh))
            return
        assert code == 2 and len(err) == 1 and err[0].startswith("error: bootstrap:")
        assert "gamma shape must be > 0" in err[0] and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--jobs", "1"],  # with seed = -1 in the config
        ["simulate", "--jobs", "2"],
        ["bootstrap", "--seed", "-1"],
    ], ids=["config-seed-jobs-1", "config-seed-jobs-2", "bootstrap"])
    def test_negative_seed_is_reported_before_any_work(
            self, tmp_path, capsys, monkeypatch, obs_csv, argv):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a cell or a replicate ran")

        monkeypatch.setattr(harness, "run_cell", must_not_run)
        monkeypatch.setattr(cli, "multiplier_bootstrap", must_not_run)
        out = tmp_path / "out.csv"
        if argv[0] == "simulate":
            argv = argv + ["--config", write_config(tmp_path, TINY_CONFIG + "seed = -1\n")]
        else:
            argv = argv + ["--input", obs_csv]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {argv[0]}:")
        assert "seed must be >= 0" in err[0] and not out.exists()

    @pytest.mark.parametrize("grid", ["nan,-1,1", "0.5,-1", "1,inf", ""])
    def test_bootstrap_bad_grid_is_reported(self, tmp_path, capsys, obs_csv, grid):
        out = tmp_path / "boot.csv"
        assert main(["bootstrap", "--input", obs_csv, "--out", str(out),
                     "--reps", "5", f"--grid={grid}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bootstrap:")
        message = "grid times" if grid else "empty evaluation grid"
        assert message in err[0] and not out.exists()

    @pytest.fixture()
    def obs_csv(self, tmp_path):
        path = tmp_path / "obs.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cycle", "rank", "time", "event"])
            rng = np.random.default_rng(0)
            for r in (1, 2):
                for c in range(1, 16):
                    writer.writerow([c, r, round(float(rng.exponential(1)), 4),
                                     int(rng.random() < 0.8)])
        return str(path)

    def test_estimate(self, tmp_path, obs_csv):
        out = tmp_path / "curve.csv"
        assert main(["estimate", "--input", obs_csv, "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        ranks = {r["rank"] for r in rows}
        assert ranks == {"1", "2", "rss"}
        rss_rows = [r for r in rows if r["rank"] == "rss"]
        surv = [float(r["survival"]) for r in rss_rows]
        assert all(a >= b - 1e-12 for a, b in zip(surv, surv[1:]))

    def test_estimate_output_bytes(self, tmp_path):
        # 3 ranks x 4 cycles: a death tied with a censoring (rank 1 at 2),
        # two tied deaths (rank 2 at 1.5), a rank ending in a death (S = 0,
        # Greenwood 0) and times shared across ranks
        path = tmp_path / "obs.csv"
        path.write_text(
            "cycle,rank,time,event\n1,1,1.0,1\n1,2,0.5,0\n1,3,1.0,1\n2,1,2.0,1\n"
            "2,2,1.5,1\n2,3,2.0,0\n3,1,2.0,0\n3,2,1.5,1\n3,3,2.5,1\n4,1,3.5,1\n"
            "4,2,4.0,0\n4,3,2.5,0\n")
        out = tmp_path / "curve.csv"
        assert main(["estimate", "--input", str(path), "--out", str(out)]) == 0
        assert out.read_bytes().decode().split("\r\n") == [
            "rank,time,survival,greenwood_var,cum_hazard,hazard_var",
            "1,1,0.75,0.046875,0.25,0.0625",
            "1,2,0.5,0.0625,0.583333,0.173611",
            "1,3.5,0,0,1.58333,1.17361",
            "2,1.5,0.333333,0.0740741,0.666667,0.222222",
            "3,1,0.75,0.046875,0.25,0.0625",
            "3,2.5,0.375,0.0820312,0.75,0.3125",
            "rss,1,0.833333,0.0104167,0.166667,0.0138889",
            "rss,1.5,0.611111,0.0186471,0.388889,0.0385802",
            "rss,2,0.527778,0.0203832,0.5,0.0509259",
            "rss,2.5,0.402778,0.0242895,0.666667,0.0787037",
            "rss,3.5,0.236111,0.017345,1,0.189815",
            "",
        ]
        # tie-free, with a lone -0.0 as rank 1's first death: it is sorted
        # and written as 0
        path.write_text(TIE_FREE_OBSERVATIONS.replace("1,1,0.3,1", "1,1,-0.0,1"))
        assert main(["estimate", "--input", str(path), "--out", str(out)]) == 0
        assert out.read_bytes().decode().split("\r\n") == [
            "rank,time,survival,greenwood_var,cum_hazard,hazard_var",
            "1,0,0.75,0.046875,0.25,0.0625",
            "1,1.2,0.5,0.0625,0.583333,0.173611",
            "1,2.8,0,0,1.58333,1.17361",
            "2,0.4,0.75,0.046875,0.25,0.0625",
            "2,2.6,0,0,1.25,1.0625",
            "3,0.7,0.75,0.046875,0.25,0.0625",
            "3,2.2,0.375,0.0820312,0.75,0.3125",
            "rss,0,0.916667,0.00520833,0.0833333,0.00694444",
            "rss,0.4,0.833333,0.0104167,0.166667,0.0138889",
            "rss,0.7,0.75,0.015625,0.25,0.0208333",
            "rss,1.2,0.666667,0.0173611,0.361111,0.033179",
            "rss,2.2,0.541667,0.0212674,0.527778,0.0609568",
            "rss,2.6,0.291667,0.016059,0.861111,0.172068",
            "rss,2.8,0.125,0.00911458,1.19444,0.283179",
            "",
        ]

    @pytest.mark.parametrize("observations, law, want", [
        (TIED_OBSERVATIONS, [], [
            "1,0.833333,0.0104167,0.00723398,0",
            "1.5,0.611111,0.0186471,0.0157554,0",
            "2,0.527778,0.0203832,0.0175256,0",
            "2.5,0.402778,0.0242895,0.0237786,0",
            "3.5,0.236111,0.017345,0.0159145,0",
        ]),
        (TIED_OBSERVATIONS, GAMMA_ON_GRID, [
            "0.5,1,0,0,0",
            "1.1,0.833333,0.0104167,0.0153813,0",
            "1.9,0.611111,0.0186471,0.0281304,0",
            "2.25,0.527778,0.0203832,0.0324402,0",
            "3.1,0.402778,0.0242895,0.0325233,0",
            "4,0.236111,0.017345,0.0202741,0",
        ]),
        (TIE_FREE_OBSERVATIONS, [], [
            "0.3,0.916667,0.00520833,0.00273848,0",
            "0.4,0.833333,0.0104167,0.00654932,0",
            "0.7,0.75,0.015625,0.0099904,0",
            "1.2,0.666667,0.0173611,0.0119183,0",
            "2.2,0.541667,0.0212674,0.0118803,0",
            "2.6,0.291667,0.016059,0.00933781,0",
            "2.8,0.125,0.00911458,0.00528748,0",
        ]),
        (TIE_FREE_OBSERVATIONS, GAMMA_ON_GRID, [
            "0.5,0.833333,0.0104167,0.0183025,0",
            "1.1,0.75,0.015625,0.0258714,0",
            "1.9,0.666667,0.0173611,0.0305338,0",
            "2.25,0.541667,0.0212674,0.03687,0",
            "3.1,0.125,0.00911458,0.0159087,0",
            "4,0.125,0.00911458,0.0159087,0",
        ]),
    ], ids=["tied-exponential", "tied-gamma-grid", "tie-free-exponential",
            "tie-free-gamma-grid"])
    def test_bootstrap_output_bytes(self, tmp_path, observations, law, want):
        # the event-time grid, and a grid at censored times, between times
        # and past the last, on a tied and a tie-free sample
        path = tmp_path / "obs.csv"
        path.write_text(observations)
        out = tmp_path / "boot.csv"
        assert main(["bootstrap", "--input", str(path), "--out", str(out),
                     "--reps", "50", "--seed", "0", *law]) == 0
        assert out.read_bytes().decode().split("\r\n") == [
            "t,point_estimate,greenwood_var,bootstrap_var,n_excluded_reps", *want, ""]

    def test_bootstrap_grid_reads_negative_zero_as_zero(self, tmp_path):
        # the default grid is the fit's death times, as estimate writes them:
        # -0.0 deaths in two ranks, one tied with a 0.0 censoring
        path = tmp_path / "obs.csv"
        path.write_text(TIE_FREE_OBSERVATIONS.replace("1,1,0.3,1", "1,1,-0.0,1")
                        .replace("2,2,0.4,1", "2,2,-0.0,1").replace("2,1,1.9,0", "2,1,0.0,0"))
        est, boot = tmp_path / "est.csv", tmp_path / "boot.csv"
        assert main(["estimate", "--input", str(path), "--out", str(est)]) == 0
        assert main(["bootstrap", "--input", str(path), "--out", str(boot),
                     "--reps", "5"]) == 0
        with open(est, newline="") as fh:
            want = [row["time"] for row in csv.DictReader(fh) if row["rank"] == "rss"]
        with open(boot, newline="") as fh:
            got = [row["t"] for row in csv.DictReader(fh)]
        assert got == want and got[0] == "0"

    def test_estimate_unbalanced_is_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("cycle,rank,time,event\n1,1,1.0,1\n1,2,2.0,1\n2,2,3.0,0\n")
        code = main(["estimate", "--input", str(path),
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "error: estimate:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, line", [
        ("1,1,1.0,7\n1,2,2.0,1\n", 2),
        ("1,1,1.0,1\n1,1,2.0,0\n1,2,2.0,1\n2,2,3.0,0\n", 3),
        ("1,1,1.0,1\n3,1,2.0,0\n1,2,2.0,1\n2,2,3.0,0\n", None),
        ("1,1,1.0,1\n1000000000000,2,2.0,1\n", None),
        ("1,1,1.0,1\n1,2,-2.0,1\n", 3),
        ("1,1,1.0,1\n1,2,nan,1\n", 3),
        ("1,1,1.0,1\n1,0,2.0,1\n", 3),
        ("1,1,1.0,1\n1,1.5,2.0,1\n", 3),
        ("1,1,1.0,1\n\n1,2,two,1\n", 4),
        ("1,1,1.0,1\n1,2\n", 3),
    ], ids=["event-not-0-or-1", "pair-repeated", "pair-missing", "cycle-beyond-rows",
            "negative-time", "nan-time", "rank-0", "rank-1.5", "time-not-a-number",
            "too-few-fields"])
    def test_bad_observations_are_reported(self, tmp_path, capsys, rows, line):
        path = tmp_path / "bad.csv"
        path.write_text("cycle,rank,time,event\n" + rows)
        code = main(["estimate", "--input", str(path), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: estimate:")
        if line is not None:
            assert f"line {line}:" in err[0]

    @pytest.mark.parametrize("bad, message", [
        ("1,2,two,1", "must hold numbers"),
        ("1,2,-2.0,1", "time must be finite"),
    ], ids=["time-not-a-number", "negative-time"])
    def test_bad_observation_beyond_the_first_block(self, tmp_path, capsys, bad, message):
        # one rank, cycles 1..n; the first of two bad rows sits in the
        # second conversion block
        n = cli._BLOCK_ROWS + 50
        rows = [f"{c},1,1.0,1" for c in range(1, n + 1)]
        for i in (cli._BLOCK_ROWS + 10, cli._BLOCK_ROWS + 20):
            rows[i] = bad.replace("1,2", f"{i + 1},1", 1)
        path = tmp_path / "bad.csv"
        path.write_text("cycle,rank,time,event\n" + "\n".join(rows) + "\n")
        assert main(["estimate", "--input", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: estimate:")
        assert f"line {cli._BLOCK_ROWS + 12}:" in err[0] and message in err[0]

    @pytest.mark.parametrize("command, data, where, message", [
        ("estimate", b"cycle,rank,time,event\n1,1,1.0,1\n1,2,\xff2.0,1\n", ": line 3:",
         "not UTF-8 text"),
        ("estimate", b"cycle,rank,time,event\n1,1,1.0,1\n1,2," + b"1" * 140_000 + b",1\n",
         ": line 3:", "field larger than field limit"),
        ("simulate", b"model = weibull\n# caf\xe9\nk = 2\n", ":2:", "not UTF-8 text"),
    ], ids=["observations-not-utf8", "observation-field-too-large", "config-not-utf8"])
    def test_unreadable_input_is_reported(self, tmp_path, capsys, command, data, where,
                                          message):
        path = tmp_path / "input"
        path.write_bytes(data)
        out = tmp_path / "out.csv"
        flag = "--config" if command == "simulate" else "--input"
        assert main([command, flag, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {command}: {path}{where}")
        assert message in err[0] and not out.exists()

    @given(case=observation_files())
    @example(case=(long_observation_file(), None))
    # where numpy's C reader alone would read otherwise: \x1c around a
    # number, a record's line after a blank line or after a record that
    # spans lines, and a quoted field open at the end of a block
    @example(case=(b"cycle,rank,time,event\n1,1,1.0,1\n1,2,2.0\x1c,1\n", None))
    @example(case=(b"cycle,rank,time,event\n1,1,1.0,1\n\n1,2,-2.0,1\n", None))
    @example(case=(b'cycle,rank,time,event\n1,1,"1.0\n",1\n1,2,-2.0,1\n', None))
    @example(case=(b'cycle,rank,time,event\n1,1,1.0,"1\n"\n1,2,2.0,1\n', 1))
    @settings(max_examples=300, deadline=None)
    def test_reader_matches_row_by_row_reference(self, tmp_path_factory, case):
        # the same sample, bit for bit, or the same error as csv and float
        # reading every row
        data, block_rows = case
        path = tmp_path_factory.getbasetemp() / "observations.csv"
        path.write_bytes(data)
        block_rows = block_rows or cli._BLOCK_ROWS
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows), \
                mock.patch.object(oracles, "_BLOCK_ROWS", block_rows):
            want = read_outcome(oracles.read_observations, str(path))
            assert read_outcome(cli._read_observations, str(path)) == want

    def test_blocks_join_into_one_sample(self, tmp_path):
        n = 2 * cli._BLOCK_ROWS + 7
        times = np.round(np.random.default_rng(3).exponential(size=(2, n)), 3)
        path = tmp_path / "obs.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cycle", "rank", "time", "event"])
            for c in range(n):
                writer.writerows([[c + 1, r + 1, times[r, c], 1] for r in (1, 0)])
                if c % 1000 == 0:
                    writer.writerow([])
        sample = cli._read_observations(str(path))
        np.testing.assert_array_equal(sample.times, times)
        assert sample.events.all()

    def test_row_order_does_not_matter(self, tmp_path, obs_csv):
        header, *rows = Path(obs_csv).read_text().splitlines(keepends=True)
        np.random.default_rng(1).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows))
        assert estimate_and_bootstrap(tmp_path, str(shuffled)) == estimate_and_bootstrap(
            tmp_path, obs_csv)

    def test_byte_order_mark_is_skipped(self, tmp_path, obs_csv):
        # spreadsheet programs save UTF-8 CSVs with a leading BOM
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(obs_csv).read_bytes())
        assert estimate_and_bootstrap(tmp_path, str(marked)) == estimate_and_bootstrap(
            tmp_path, obs_csv)

    def test_bootstrap(self, tmp_path, obs_csv):
        out = tmp_path / "boot.csv"
        assert main(["bootstrap", "--input", obs_csv, "--out", str(out),
                     "--reps", "50", "--grid", "0.5,1.0"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["t"] for r in rows] == ["0.5", "1"]
        assert all(float(r["bootstrap_var"]) >= 0 for r in rows)

    def test_kernels(self, tmp_path):
        text = "model = weibull\nk = 2\nm = 5\nrho = 0.5, 1.0\np_cens = 0, 0.3\nlevels = 0.5\n"
        out, reseeded = tmp_path / "kern.csv", tmp_path / "reseeded.csv"
        assert main(["kernels", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 0
        # no random draws: b_mc and seed change nothing
        assert main(["kernels", "--config", write_config(tmp_path, text + "b_mc = 7\nseed = 9\n"),
                     "--out", str(reseeded)]) == 0
        assert out.read_bytes() == reseeded.read_bytes()
        rows = read_rows(out)
        assert [r["rho"] for r in rows] == ["0.5", "0.5", "1", "1"]
        judged, perfect = rows[:2], rows[2:]
        for j, p in zip(judged, perfect):
            assert float(p["re_true"]) >= float(j["re_true"]) >= 1.0


# --------------------------------------------------------------------------
# start-up footprint

FOOTPRINT_SCRIPT = r"""
import json, sys
from rsskm.cli import main

def estimation_extras():  # estimate and bootstrap need no scipy, harness or models
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy" or name in ("rsskm.harness", "rsskm.models"))

def simulation_extras():
    return [name for name in ("scipy.stats", "scipy.interpolate") if name in sys.modules]

cfg = "m = 3\nlevels = 0.5\nb_mc = 5\np_cens = 0.3\n"
open("aft.txt", "w").write(cfg + "model = aft\nk = 2\nrho = 0.5\n")
open("perfect.txt", "w").write(cfg + "model = weibull\nk = 2\nrho = 1.0\n")
open("judged.txt", "w").write(cfg + "model = weibull\nk = 2\nrho = 0.5\n")
open("obs.csv", "w").write(
    "cycle,rank,time,event\n1,1,1.0,1\n2,1,2.0,0\n1,2,1.5,1\n2,2,3.0,1\n")
stages = {"import": estimation_extras()}
assert main(["estimate", "--input", "obs.csv", "--out", "est.csv"]) == 0
stages["estimate"] = estimation_extras()
assert main(["bootstrap", "--input", "obs.csv", "--out", "boot.csv", "--reps", "5"]) == 0
stages["bootstrap"] = estimation_extras()
for argv in (["simulate", "--config", "aft.txt", "--out", "aft.csv"],
             ["simulate", "--config", "perfect.txt", "--out", "perfect.csv"]):
    assert main(argv) == 0, argv
stages["untabulated"] = simulation_extras()
assert main(["simulate", "--config", "judged.txt", "--out", "judged.csv"]) == 0
stages["judged"] = simulation_extras()
print(json.dumps(stages))
"""


def test_commands_load_only_the_modules_they_run(tmp_path):
    # a fresh interpreter: this test process has loaded scipy.stats already
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    stages = json.loads(done.stdout)
    assert stages == {
        # no scipy module at all, and neither rsskm.harness nor rsskm.models
        "import": [],
        "estimate": [],
        "bootstrap": [],
        # neither scipy.stats nor scipy.interpolate: AFT and perfect-ranking
        # simulate, then a judged cell, whose score-CDF spline is computed in models
        "untabulated": [],
        "judged": [],
    }


# --------------------------------------------------------------------------
# package root


def test_package_root_names_are_their_modules_objects():
    import rsskm

    for name in rsskm.__all__:
        obj = getattr(rsskm, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from rsskm import *", namespace)
    assert set(rsskm.__all__) <= set(namespace)
    assert rsskm.InferenceWindowError is models.InferenceWindowError
    # the simulation API is imported from its modules, not from the root
    for name in ("no_such_name", "order_statistic_survival", "run_cell"):
        with pytest.raises(AttributeError, match=name):
            getattr(rsskm, name)
