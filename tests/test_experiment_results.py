"""Unit tests for experiment result dataclasses (no tuning runs needed)."""

import pytest

from repro.experiments.common import FAST, PAPER
from repro.experiments.fig02_sensitivity import Fig2Result
from repro.experiments.fig08_hm_params import Fig8Result
from repro.experiments.fig10_scatter import ScatterSeries
from repro.experiments.fig12_speedup import Fig12Result, SpeedupCell
from repro.experiments.fig14_terasort_stage2 import Fig14Result
from repro.experiments.model_errors import ModelErrorResult, run_model_errors
from repro.experiments.table3_overhead import Table3Result


class TestScales:
    def test_paper_scale_matches_section5(self):
        assert PAPER.n_train == 2000
        assert PAPER.n_test == 500
        assert PAPER.n_trees == 3600
        assert PAPER.learning_rate == 0.05
        assert PAPER.tree_complexity == 5
        assert PAPER.fig2_configs == 200

    def test_fast_scale_covers_all_programs(self):
        assert FAST.programs == ("PR", "KM", "BA", "NW", "WC", "TS")


class TestFig2Result:
    def test_ratio_and_claim(self):
        result = Fig2Result(
            scale="t",
            n_configs=10,
            tvars={
                ("Spark", "KM"): (100.0, 260.0),
                ("Hadoop", "KM"): (100.0, 97.0),
                ("Spark", "PR"): (100.0, 430.0),
                ("Hadoop", "PR"): (100.0, 176.0),
            },
        )
        assert result.ratio("Spark", "KM") == pytest.approx(2.6)
        assert result.imc_more_sensitive
        assert "2.60x" in result.render()


class TestFig8Result:
    def test_best_setting_and_claim(self):
        result = Fig8Result(
            scale="t",
            program="PR",
            learning_rates=(0.01, 0.05),
            tree_complexities=(1, 5),
            curves={
                (1, 0.01): (0.30, 0.20, 0.15),
                (1, 0.05): (0.25, 0.14, 0.12),
                (5, 0.01): (0.28, 0.15, 0.10),
                (5, 0.05): (0.20, 0.09, 0.076),
            },
        )
        assert result.min_error(1) == pytest.approx(0.12)
        assert result.min_error(5) == pytest.approx(0.076)
        assert result.complex_trees_win
        assert result.best_setting() == (5, 0.05, 3)


class TestScatterSeries:
    def test_within_and_correlation(self):
        measured = (100.0, 200.0, 400.0, 800.0)
        predicted = (105.0, 190.0, 500.0, 820.0)
        series = ScatterSeries(measured, predicted)
        assert series.within(0.30) == 1.0
        assert series.within(0.04) == pytest.approx(0.25)  # only the 820 point
        assert series.log_correlation() > 0.98


class TestFig12Aggregates:
    @pytest.fixture()
    def result(self):
        cells = tuple(
            SpeedupCell(
                program="TS",
                size=float(i),
                dac_seconds=100.0,
                default_seconds=100.0 * factor,
                rfhoc_seconds=150.0,
                expert_seconds=230.0,
            )
            for i, factor in enumerate((10.0, 40.0), start=1)
        )
        return Fig12Result(scale="t", cells=cells)

    def test_mean_geomean_max(self, result):
        assert result.mean_speedup("default") == pytest.approx(25.0)
        assert result.geomean_speedup("default") == pytest.approx(20.0)
        assert result.max_speedup("default") == pytest.approx(40.0)

    def test_other_baselines(self, result):
        assert result.mean_speedup("rfhoc") == pytest.approx(1.5)
        assert result.mean_speedup("expert") == pytest.approx(2.3)

    def test_render_summary(self, result):
        text = result.render()
        assert "vs default: mean 25.0x" in text


class TestFig14Result:
    def test_growth(self):
        result = Fig14Result(
            scale="t",
            sizes=(10.0, 50.0),
            stage2_seconds={("DAC", 10.0): 20.0, ("DAC", 50.0): 120.0,
                            ("default", 10.0): 1000.0, ("default", 50.0): 11000.0},
            gc_seconds={("DAC", 10.0): 1.0, ("DAC", 50.0): 25.0,
                        ("default", 10.0): 300.0, ("default", 50.0): 8600.0},
            stage1_fraction={("DAC", 10.0): 0.1, ("DAC", 50.0): 0.1,
                             ("default", 10.0): 0.1, ("default", 50.0): 0.1},
        )
        assert result.growth("DAC", result.gc_seconds) == pytest.approx(25.0)
        assert result.growth("default", result.gc_seconds) > result.growth(
            "DAC", result.gc_seconds
        )


class TestTable3Result:
    def test_collecting_dominates_logic(self):
        good = Table3Result(scale="t", costs={"TS": (70.0, 10.0, 480.0)})
        assert good.collecting_dominates
        bad = Table3Result(scale="t", costs={"TS": (0.01, 100.0, 600.0)})
        assert not bad.collecting_dominates


class TestModelErrors:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_model_errors(FAST, ["RS", "XGBOOST"])

    def test_average_and_render(self):
        result = ModelErrorResult(
            scale="t",
            models=("RS",),
            programs=("TS", "KM"),
            errors={"RS": {"TS": 0.2, "KM": 0.3}},
        )
        assert result.average("RS") == pytest.approx(0.25)
        assert "25.0%" in result.render("title")
