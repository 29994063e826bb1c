"""Config parsing, the Monte-Carlo cell/grid runner, and the CLI."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rsskm import (
    AftModel,
    ConfigError,
    DesignPoint,
    HarnessConfig,
    RngStream,
    WeibullModel,
    censoring_for_fraction,
    dell_clutter_sigma,
    draw_balanced_rss,
    parse_config,
    prepare_model,
    run_cell,
    run_grid,
)
from rsskm import cli, harness, models
from rsskm.cli import main
from rsskm.rss import rss_mean
from rsskm.sampling import draw_samples
from rsskm.survival import SortedSample
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


def chunk_draws(design, n_reps, rng, chunk):
    """(replicate index, RSS slice, SRS slice) of the block draws that
    ``_simulate_batch`` makes in chunks of ``chunk`` replicates, each slice
    as a (times, events) pair."""
    k, m = design.k, design.m
    censoring = censoring_for_fraction(design.model, design.p_cens)
    for c, start in enumerate(range(0, n_reps, chunk)):
        size = min(chunk, n_reps - start)
        rss = draw_samples(design.model, k, m, censoring, rng.child(c, 0), size)
        srs = draw_samples(design.model, 1, k * m, censoring, rng.child(c, 1), size)
        for i in range(size):
            yield start + i, (rss[0][i], rss[1][i]), (srs[0][i], srs[1][i])


def reference_batch(design, n_reps, times, samples):
    """``_simulate_batch`` outputs from one kernel call per sample, for
    ``samples`` yielding (replicate, RSS, SRS) with each sample a
    (times, events) pair."""
    out = np.zeros((4, n_reps, len(times)))
    n_degenerate = np.zeros(len(times), dtype=int)
    for i, rss, srs in samples:
        rss_fit = SortedSample(*rss).product_limit()
        srs_fit = SortedSample(*srs).product_limit()
        out[:, i] = (rss_mean(rss_fit.survival_at(times)),
                     rss_mean(rss_fit.greenwood_at(times), 2),
                     srs_fit.survival_at(times)[0], srs_fit.greenwood_at(times)[0])
        exhausted = min(rss_fit.exhausted_at.min(), srs_fit.exhausted_at.min())
        n_degenerate += exhausted <= np.asarray(times)
    return (*out, n_degenerate)


def assert_batches_equal(got, want):
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b, strict=True)


class TestSimulateBatch:
    JUDGED_AFT = DesignPoint(prepare_model(AftModel(), 0.5), 3, 5, 0.5, 0.3)
    # k >= 8: a pairwise rank sum would differ from the rank-order one
    JUDGED_WEIBULL = DesignPoint(prepare_model(EXP, 0.9), 9, 7, 0.9, 0.3)

    def test_one_replicate_chunks_reproduce_per_replicate_draws(self, monkeypatch):
        # replicate i drawn on its own from rng.child(i, 0) and rng.child(i, 1)
        monkeypatch.setattr(harness, "_BUDGET", 1)
        design, n_reps, rng = self.JUDGED_AFT, 25, RngStream(3, 1)
        times = eval_times(design)
        censoring = censoring_for_fraction(design.model, design.p_cens)

        def per_replicate():
            for i in range(n_reps):
                rss = draw_balanced_rss(design.model, 3, 5, censoring, rng.child(i, 0))
                srs = draw_balanced_rss(design.model, 1, 15, censoring, rng.child(i, 1))
                yield i, (rss.times, rss.events), (srs.times, srs.events)

        got = harness._simulate_batch(design, n_reps, rng, times)
        assert_batches_equal(got, reference_batch(design, n_reps, times, per_replicate()))

    @pytest.mark.parametrize("b_mc", [lambda chunk: 2, lambda chunk: chunk + 1,
                                      lambda chunk: 2 * chunk + 43],
                             ids=["two", "chunk-plus-one", "non-multiple"])
    @pytest.mark.parametrize("times", [None, [0.5]], ids=["four-times", "one-time"])
    def test_chunks_match_one_kernel_call_per_slice(self, b_mc, times):
        design, rng = self.JUDGED_WEIBULL, RngStream(6, 2)
        chunk = harness._BUDGET // (7 * 9 * 4)
        assert chunk > 2
        n_reps = b_mc(chunk)
        if times is None:
            times = eval_times(design)
        got = harness._simulate_batch(design, n_reps, rng, times)
        want = reference_batch(design, n_reps, times, chunk_draws(design, n_reps, rng, chunk))
        assert_batches_equal(got, want)
        assert got[0].shape == (n_reps, len(times))

    @pytest.mark.parametrize("b_mc", [lambda chunk: chunk + 1, lambda chunk: 2 * chunk + 43],
                             ids=["chunk-plus-one", "non-multiple"])
    @pytest.mark.parametrize("design", [
        DesignPoint(prepare_model(AftModel(), 0.5), 9, 7, 0.5, 0.3),
        DesignPoint(prepare_model(EXP, 1.0), 9, 7, 1.0, 0.3),
    ], ids=["aft", "perfect-weibull"])
    def test_slot_law_chunks_hold_budget_over_m_k_4(self, design, b_mc):
        # samplers that draw each slot from its law size chunks by
        # m * k * min(k, 4), not by the m * k * k of a candidate set
        rng = RngStream(6, 3)
        chunk = harness._BUDGET // (7 * 9 * 4)
        n_reps = b_mc(chunk)
        times = eval_times(design)
        got = harness._simulate_batch(design, n_reps, rng, times)
        want = reference_batch(design, n_reps, times, chunk_draws(design, n_reps, rng, chunk))
        assert_batches_equal(got, want)


class TestRunCell:
    def test_record_fields_and_ratios(self):
        design = DesignPoint(EXP, 2, 15, 1.0, 0.0, (0.5, 0.25))
        records = run_cell(design, 200, RngStream(5, 0), seed=5)
        assert len(records) == 2
        for rec in records:
            assert rec.re_mc == pytest.approx(rec.v_srs_mc / rec.v_rss_mc)
            assert rec.re_gw == pytest.approx(rec.mean_gw_srs / rec.mean_gw_rss)
            assert rec.v_rss_mc >= 0 and rec.v_srs_mc >= 0
            assert rec.seed == 5

    def test_deterministic(self):
        design = DesignPoint(EXP, 2, 10, 1.0, 0.1, (0.5,))
        a = run_cell(design, 100, RngStream(8, 3))
        b = run_cell(design, 100, RngStream(8, 3))
        assert a == b

    def test_k1_collapse_re_true_is_one(self):
        design = DesignPoint(EXP, 1, 30, 1.0, 0.0, (0.5,))
        rec = run_cell(design, 300, RngStream(1, 0))[0]
        assert rec.re_true == 1.0
        assert rec.re_mc == pytest.approx(1.0, abs=0.35)

    def test_re_true_does_not_depend_on_the_seed(self):
        design = DesignPoint(prepare_model(AftModel(), 0.5), 3, 5, 0.5, 0.3, (0.75, 0.5))
        a = run_cell(design, 20, RngStream(1, 0))
        b = run_cell(design, 20, RngStream(2, 0))
        assert [r.re_true for r in a] == [r.re_true for r in b]
        assert a[0].re_mc != b[0].re_mc

    def test_judged_law_is_tabulated_once_per_cell(self, monkeypatch):
        # every chunk of the sampler reads one judged-rank table at no times,
        # re_true one at the cell's times; the SRS kernels at nu != 1
        # tabulate the k = 1 law per time
        models._cached_judged_law.cache_clear()
        calls = []
        tabulate = models._tabulate_judged_law

        def counting(model, k, times):
            calls.append((k, len(times)))
            return tabulate(model, k, times)

        monkeypatch.setattr(models, "_tabulate_judged_law", counting)
        design = DesignPoint(prepare_model(WeibullModel(1.5), 0.7), 10, 5, 0.7, 0.3, (0.75, 0.5))
        run_cell(design, 3 * harness._BUDGET // (5 * 10 * 4), RngStream(1))
        assert calls == [(10, 0), (1, 1), (1, 1), (10, 2)]

    def test_weibull_re_true_uses_analytic_kernels(self):
        design = DesignPoint(EXP, 4, 10, 1.0, 0.0, (0.5,))
        rec = run_cell(design, 50, RngStream(2, 0))[0]
        # perfect-ranking k=4 exponential at the median: known kernel ratio
        vals = [order_statistic_survival(0.5, 4, r, 0.0) for r in (1, 2, 3, 4)]
        want = 0.25 / np.mean([s * (1 - s) for s in vals])
        assert rec.re_true == pytest.approx(want, rel=1e-6)

    def test_n_degenerate_counts_replicates_per_time(self):
        # m=3 exhausts risk sets often; the reference refits every curve of
        # every replicate slice of the same block draws (primary branch 0,
        # chunk c, RSS 0 / SRS 1)
        design = DesignPoint(EXP, 2, 3, 1.0, 0.0, (0.75, 0.5, 0.25, 0.1))
        b_mc = 200
        records = run_cell(design, b_mc, RngStream(4, 0))
        counts = [rec.n_degenerate for rec in records]
        assert all(0 <= c <= b_mc for c in counts)
        by_time = np.asarray(counts)[np.argsort([rec.t for rec in records])]
        assert np.all(np.diff(by_time) >= 0)

        total = 0
        chunk = harness._BUDGET // (3 * 2 * 2)
        for _, rss, srs in chunk_draws(design, b_mc, RngStream(4, 0).child(0), chunk):
            curves = [SortedSample(t[None], e[None]).product_limit() for t, e in zip(*rss)]
            curves.append(SortedSample(*srs).product_limit())
            # unweighted S-hat is 0 exactly where the whole risk set died
            total += sum(any(c.survival_at(rec.t)[0] == 0 for c in curves)
                         for rec in records)
        assert total > 0 and sum(counts) == total

    def test_b_mc_too_small(self):
        with pytest.raises(Exception, match="b_mc"):
            run_cell(DesignPoint(EXP, 2, 5, 1.0, 0.0, (0.5,)), 1, RngStream(0))


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
        cfg = parse_config(write_config(tmp_path, TINY_CONFIG))
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"grid{jobs}.csv"
            run_grid(cfg, str(out), parallelism=jobs)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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
            with the models the workers would receive."""

            def __init__(self, n, initializer, initargs):
                asked.append(n)
                self.initargs = initargs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return [fn(task, *self.initargs) for task in tasks]

        text = f"model = weibull\nm = 5\nlevels = 0.5\nb_mc = 20\nseed = 3\n{grid}"
        cfg = parse_config(write_config(tmp_path, text))
        serial = tmp_path / "serial.csv"
        run_grid(cfg, str(serial))
        monkeypatch.setattr(harness.multiprocessing, "Pool", RecordingPool)
        out = tmp_path / "pooled.csv"
        run_grid(cfg, str(out), parallelism=jobs)
        assert asked == ([] if processes is None else [processes])
        assert out.read_bytes() == serial.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TINY_CONFIG))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_grid(cfg, str(a))
        run_grid(cfg, str(b), master_seed=99)
        assert a.read_bytes() != b.read_bytes()


class TestCli:
    def test_simulate(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "grid.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len(read_rows(out)) == 8

    def test_simulate_bad_config_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bogus = 1\n")
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: simulate:")

    def test_kernels_zero_k_is_reported(self, tmp_path, capsys):
        assert main(["kernels", "--out", str(tmp_path / "k.csv"), "--k", "0",
                     "--rho", "0.5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: kernels:") and "k must be >= 1" in err[0]

    @pytest.mark.parametrize("argv", [
        ["--k", "2", "--rho", "1.0", "--p-cens", "0,0.5", "--levels", "1e-7"],
        ["--p-cens", "0.999999"],
    ], ids=["window-error-after-first-row", "censoring-error-before-first-row"])
    def test_kernels_error_leaves_no_file(self, tmp_path, capsys, argv):
        out = tmp_path / "k.csv"
        assert main(["kernels", "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: kernels:")
        assert "outside inference window" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--rho", "1.5", "--levels", "1e-13"],
        ["--rho", "1.5", "--p-cens", "1.0"],
        ["--rho", "0.5,1.5", "--p-cens", "0.3,1.0"],
    ], ids=["bad-rho-and-out-of-window-level", "bad-rho-and-bad-p-cens",
            "bad-second-rho-and-bad-second-p-cens"])
    def test_kernels_bad_rho_is_reported_first(self, tmp_path, capsys, argv):
        # every --rho is checked before any censoring fraction or time window
        out = tmp_path / "k.csv"
        assert main(["kernels", "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: kernels: rho must be in (0,1], got 1.5"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--k", "--rho", "--p-cens", "--levels"])
    def test_kernels_empty_list_is_reported(self, tmp_path, capsys, flag):
        out = tmp_path / "k.csv"
        assert main(["kernels", "--out", str(out), flag, ""]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: kernels: {flag} lists no values"]
        assert not out.exists()

    @pytest.mark.parametrize("command, text, quantity", [
        ("kernels", "--nu 0.001 --levels 0.1", "quantile at survival level 0.1"),
        ("kernels", "--nu 0.01 --rho 0.5 --levels 0.5", "Weibull lifetime variance"),
        ("simulate", "beta = 600\nlevels = 0.01\n", "exp(s^2) in the AFT ranking-correlation"),
        ("simulate", "beta = 40\np_cens = 0.3\n", "exp(s^2) in the AFT ranking-correlation"),
        ("simulate", "mu = 800\nlevels = 0.75\n", "quantile at survival level 0.75"),
        ("simulate", "mu = 700\nbeta = 10\nsigma_eps = 0\np_cens = 0.3\nlevels = 0.75\n",
         "AFT mean lifetime"),
    ], ids=["weibull-quantile", "weibull-variance", "aft-ceiling-600", "aft-ceiling-40",
            "aft-quantile", "aft-mean-lifetime"])
    def test_overflowing_model_is_reported(self, tmp_path, capsys, command, text, quantity):
        out = tmp_path / "out.csv"
        if command == "kernels":
            argv = ["kernels", *text.split()]
        else:
            base = "model = aft\nk = 2\nm = 5\nrho = 0.5\np_cens = 0\nb_mc = 5\n"
            argv = ["simulate", "--config", write_config(tmp_path, base + text)]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {command}: {quantity}")
        assert "overflows" in err[0] and not out.exists()

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

    @pytest.mark.parametrize("k", ["2.5", "2,-3", "nan"])
    def test_kernels_non_integer_k_is_reported(self, tmp_path, capsys, k):
        out = tmp_path / "k.csv"
        assert main(["kernels", "--out", str(out), f"--k={k}", "--rho", "0.5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: kernels:") and "k must be >= 1" in err[0]
        assert not out.exists()

    def test_non_numeric_lists_are_reported(self, tmp_path, capsys, obs_csv):
        assert main(["bootstrap", "--input", obs_csv, "--out", str(tmp_path / "b.csv"),
                     "--grid", "0.5,abc"]) == 2
        assert main(["kernels", "--out", str(tmp_path / "k.csv"), "--k", "two"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("error: bootstrap:") and "'0.5,abc'" in err[0]
        assert err[1].startswith("error: kernels:") and "'two'" in err[1]

    @pytest.mark.parametrize("flag", ["--theta1=nan", "--nu=inf"])
    def test_kernels_non_finite_model_is_reported(self, tmp_path, capsys, flag):
        out = tmp_path / "k.csv"
        assert main(["kernels", "--out", str(out), flag]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: kernels:") and "finite" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("shape", ["nan", "inf"])
    def test_bootstrap_non_finite_gamma_shape_is_reported(self, tmp_path, capsys, obs_csv,
                                                          shape):
        out = tmp_path / "boot.csv"
        assert main(["bootstrap", "--input", obs_csv, "--out", str(out), "--reps", "5",
                     "--law", "gamma", "--gamma-shape", shape]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bootstrap:")
        assert "gamma shape" in err[0] and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "-5", "--jobs", "1"],
        ["simulate", "--seed", "-5", "--jobs", "2"],
        ["simulate", "--jobs", "2"],  # with seed = -1 in the config
        ["bootstrap", "--seed", "-1"],
    ], ids=["simulate-jobs-1", "simulate-jobs-2", "config-seed", "bootstrap"])
    def test_negative_seed_is_reported_before_any_work(
            self, tmp_path, capsys, monkeypatch, obs_csv, argv):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a cell or a replicate ran")

        monkeypatch.setattr(harness, "run_cell", must_not_run)
        monkeypatch.setattr(cli, "multiplier_bootstrap", must_not_run)
        out = tmp_path / "out.csv"
        if argv[0] == "simulate":
            seed_line = "seed = -1\n" if "--seed" not in argv else ""
            argv = argv + ["--config", write_config(tmp_path, TINY_CONFIG + seed_line)]
        else:
            argv = argv + ["--input", obs_csv]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {argv[0]}:")
        assert "seed must be >= 0" in err[0] and not out.exists()

    @pytest.mark.parametrize("grid", ["nan,-1,1", "0.5,-1", "1,inf"])
    def test_bootstrap_bad_grid_is_reported(self, tmp_path, capsys, obs_csv, grid):
        out = tmp_path / "boot.csv"
        assert main(["bootstrap", "--input", obs_csv, "--out", str(out),
                     "--reps", "5", f"--grid={grid}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bootstrap:")
        assert "grid times" in err[0] and not out.exists()

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
        header, *rows = open(obs_csv).read().splitlines(keepends=True)
        np.random.default_rng(1).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows))
        outputs = []
        for path in (obs_csv, str(shuffled)):
            est, boot = tmp_path / "est.csv", tmp_path / "boot.csv"
            assert main(["estimate", "--input", path, "--out", str(est)]) == 0
            assert main(["bootstrap", "--input", path, "--out", str(boot),
                         "--reps", "50"]) == 0
            outputs.append((est.read_bytes(), boot.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bootstrap(self, tmp_path, obs_csv):
        out = tmp_path / "boot.csv"
        assert main(["bootstrap", "--input", obs_csv, "--out", str(out),
                     "--reps", "50", "--grid", "0.5,1.0"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["t"] for r in rows] == ["0.5", "1"]
        assert all(float(r["bootstrap_var"]) >= 0 for r in rows)

    def test_kernels(self, tmp_path):
        out = tmp_path / "kern.csv"
        assert main(["kernels", "--out", str(out), "--k", "2",
                     "--rho", "0.5,1.0", "--p-cens", "0,0.3",
                     "--levels", "0.5"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            assert float(row["re_perfect"]) >= float(row["re_judged"]) - 1e-9
            assert float(row["re_judged"]) >= 1.0 - 1e-9


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
    for name in ("no_such_name", "order_statistic_survival"):
        with pytest.raises(AttributeError, match=name):
            getattr(rsskm, name)
