"""Config parsing, the Monte-Carlo cell/grid runner, and the CLI."""

import csv
import math

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
    draw_srs,
    eval_times_from_levels,
    evaluate,
    parse_config,
    prepare_model,
    run_cell,
    run_grid,
)
from rsskm.cli import main
from rsskm.survival import fit_curve_arrays

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
        with pytest.raises(ConfigError, match="n_sets"):
            parse_config(write_config(tmp_path, "n_sets = 0\n"))


# --------------------------------------------------------------------------
# eval times and model preparation


class TestEvalTimes:
    def test_exponential_median(self):
        assert eval_times_from_levels(EXP, [0.5]) == [pytest.approx(math.log(2))]

    def test_aft_reference_times(self):
        times = eval_times_from_levels(AftModel(), [0.5, 0.1])
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
# run_cell


class TestRunCell:
    def test_record_fields_and_ratios(self):
        design = DesignPoint(EXP, 2, 15, 1.0, 0.0, (0.5, 0.25))
        records = run_cell(design, 200, RngStream(5, 0), b_true=2, seed=5)
        assert len(records) == 2
        for rec in records:
            assert rec.re_mc == pytest.approx(rec.v_srs_mc / rec.v_rss_mc)
            assert rec.re_gw == pytest.approx(rec.mean_gw_srs / rec.mean_gw_rss)
            assert rec.v_rss_mc >= 0 and rec.v_srs_mc >= 0
            assert rec.seed == 5

    def test_deterministic(self):
        design = DesignPoint(EXP, 2, 10, 1.0, 0.1, (0.5,))
        a = run_cell(design, 100, RngStream(8, 3), b_true=2)
        b = run_cell(design, 100, RngStream(8, 3), b_true=2)
        assert a == b

    def test_k1_collapse_re_true_is_one(self):
        design = DesignPoint(EXP, 1, 30, 1.0, 0.0, (0.5,))
        rec = run_cell(design, 300, RngStream(1, 0), b_true=2)[0]
        assert rec.re_true == 1.0
        assert rec.re_mc == pytest.approx(1.0, abs=0.35)

    def test_weibull_re_true_uses_analytic_kernels(self):
        design = DesignPoint(EXP, 4, 10, 1.0, 0.0, (0.5,))
        rec = run_cell(design, 50, RngStream(2, 0), b_true=2)[0]
        # perfect-ranking k=4 exponential at the median: known kernel ratio
        from rsskm import order_statistic_survival
        vals = [order_statistic_survival(0.5, 4, r, 0.0) for r in (1, 2, 3, 4)]
        want = 0.25 / np.mean([s * (1 - s) for s in vals])
        assert rec.re_true == pytest.approx(want, rel=1e-6)

    def test_n_degenerate_counts_replicates_per_time(self):
        # m=3 exhausts risk sets often; the reference refits every curve of
        # every replicate (primary branch 0, replicate i, RSS 0 / SRS 1)
        design = DesignPoint(EXP, 2, 3, 1.0, 0.0, (0.75, 0.5, 0.25, 0.1))
        b_mc = 200
        records = run_cell(design, b_mc, RngStream(4, 0), b_true=2)
        counts = [rec.n_degenerate for rec in records]
        assert all(0 <= c <= b_mc for c in counts)
        by_time = np.asarray(counts)[np.argsort([rec.t for rec in records])]
        assert np.all(np.diff(by_time) >= 0)

        censoring = censoring_for_fraction(EXP, 0.0)
        total = 0
        for i in range(b_mc):
            rep = RngStream(4, 0).child(0, i)
            rss = draw_balanced_rss(EXP, 2, 3, censoring, rep.child(0))
            srs = draw_srs(EXP, 6, censoring, rep.child(1))
            curves = [fit_curve_arrays(t, e) for t, e in zip(rss.times, rss.events)]
            curves.append(fit_curve_arrays(srs.times[0], srs.events[0]))
            total += sum(any(evaluate(c, rec.t).degenerate for c in curves)
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
        assert fh.readline().strip() == "# schema_version=1"
        return list(csv.DictReader(fh))


class TestRunGrid:
    def test_rows_and_schema(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TINY_CONFIG))
        out = tmp_path / "grid.csv"
        run_grid(cfg, str(out))
        rows = read_rows(out)
        assert len(rows) == 2 * 2 * 2 * 1  # k x rho x p_cens x levels
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

    def test_zero_n_sets_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG.replace("n_sets = 5000", "n_sets = 0"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["kernels", "--out", str(tmp_path / "k.csv"), "--k", "2",
                     "--rho", "0.5", "--n-sets", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("error: simulate:") and "n_sets" in err[0]
        assert err[1].startswith("error: kernels:") and "n_sets" in err[1]

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

    def test_estimate_unbalanced_is_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("cycle,rank,time,event\n1,1,1.0,1\n1,2,2.0,1\n2,2,3.0,0\n")
        code = main(["estimate", "--input", str(path),
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "error: estimate:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        "1,1,1.0,7\n1,2,2.0,1\n",
        "1,1,1.0,1\n1,1,2.0,0\n1,2,2.0,1\n2,2,3.0,0\n",
        "1,1,1.0,1\n3,1,2.0,0\n1,2,2.0,1\n2,2,3.0,0\n",
        "1,1,1.0,1\n1000000000000,2,2.0,1\n",
    ], ids=["event-not-0-or-1", "pair-repeated", "pair-missing", "cycle-beyond-rows"])
    def test_bad_observations_are_reported(self, tmp_path, capsys, rows):
        path = tmp_path / "bad.csv"
        path.write_text("cycle,rank,time,event\n" + rows)
        code = main(["estimate", "--input", str(path), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: estimate:")

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
                     "--levels", "0.5", "--n-sets", "20000"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            assert float(row["re_perfect"]) >= float(row["re_judged"]) - 1e-9
            assert float(row["re_judged"]) >= 1.0 - 1e-9
