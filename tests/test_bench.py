"""Tests for the benchmark harness, tables, figures and breakdowns."""

import pytest

from repro.bench.figures import (
    duplicate_rank_distribution,
    figure03_dataset_stats,
    figure04_06_series,
    rank_histogram,
)
from repro.bench.harness import (
    ALL_METHODS,
    EXCLUDED_CELLS,
    CellResult,
    ExperimentMatrix,
    SettingKey,
    bench_datasets,
    schema_settings,
)
from repro.bench.runtime_breakdown import (
    breakdown_filter,
    breakdown_from_matrix,
)
from repro.bench.tables import (
    render_table,
    table06_datasets,
    table07_effectiveness,
    table11_candidates,
)
from repro.blocking.workflow import parameter_free_workflow
from repro.sparse.knn_join import KNNJoin


class TestScope:
    def test_all_18_methods(self):
        # The paper's 17 methods plus the learned SMB family.
        assert len(ALL_METHODS) == 18
        assert ALL_METHODS[-1] == "SMB"

    def test_excluded_cells_match_paper(self):
        assert ("MH-LSH", "d10") in EXCLUDED_CELLS
        assert ("DB", "d10") in EXCLUDED_CELLS
        assert ("DDB", "d10") in EXCLUDED_CELLS

    def test_schema_settings(self):
        assert schema_settings("d2") == ["a", "b"]
        assert schema_settings("d5") == ["a"]
        assert schema_settings("d10") == ["a"]

    def test_bench_datasets_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "d1, d3")
        assert bench_datasets() == ["d1", "d3"]
        monkeypatch.setenv("REPRO_BENCH_DATASETS", "dX")
        with pytest.raises(ValueError):
            bench_datasets()

    def test_bench_datasets_default_all(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_DATASETS", raising=False)
        assert len(bench_datasets()) == 10


class TestExperimentMatrix:
    def test_cells_respect_exclusions(self, tmp_path):
        matrix = ExperimentMatrix(
            methods=["MH-LSH", "kNNJ"],
            datasets=["d10"],
            cache_path=tmp_path / "m.json",
        )
        cells = list(matrix.cells())
        assert all(cell.method != "MH-LSH" for cell in cells)

    def test_run_cell_and_cache(self, tmp_path):
        matrix = ExperimentMatrix(
            methods=["kNNJ"], datasets=["d1"], cache_path=tmp_path / "m.json"
        )
        key = SettingKey("kNNJ", "d1", "a")
        first = matrix.run_cell(key)
        assert first.feasible
        # A fresh matrix picks the result up from disk.
        reloaded = ExperimentMatrix(
            methods=["kNNJ"], datasets=["d1"], cache_path=tmp_path / "m.json"
        )
        cached = reloaded.get("kNNJ", "d1", "a")
        assert cached is not None
        assert cached.pq == first.pq

    def test_setting_key_label(self):
        assert SettingKey("SBW", "d10", "a").label == "Da10"
        assert SettingKey("SBW", "d2", "b").label == "Db2"


class TestTables:
    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [["1", "2"], ["33", "44"]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # aligned

    def test_table06_contains_all_datasets(self):
        table = table06_datasets(["d1", "d2"])
        assert "d1" in table and "d2" in table
        assert "Best attribute" in table

    def test_table07_renders_cells(self, tmp_path):
        matrix = ExperimentMatrix(
            methods=["kNNJ"], datasets=["d1"], cache_path=tmp_path / "m.json"
        )
        matrix.run_all(verbose=False)
        output = table07_effectiveness(matrix)
        assert "Table VII(a)" in output
        assert "Da1" in output and "Db1" in output

    def test_table11_marks_infeasible(self, tmp_path):
        matrix = ExperimentMatrix(
            methods=["kNNJ"], datasets=["d1"], cache_path=tmp_path / "m.json"
        )
        key = "kNNJ|d1|a"
        matrix._results[key] = CellResult(
            method="kNNJ", dataset="d1", setting="a",
            pc=0.5, pq=0.1, candidates=200000, runtime=1.0, feasible=False,
        )
        output = table11_candidates(matrix)
        assert "2.0e+05*" in output


class TestFigures:
    def test_figure03_lists_every_dataset(self):
        output = figure03_dataset_stats(["d1", "d2"])
        assert "d1" in output and "d2" in output

    def test_rank_distribution_syntactic(self, small_generated):
        ranks = duplicate_rank_distribution(small_generated, "syntactic")
        assert len(ranks) == len(small_generated.groundtruth)
        assert all(0 <= r <= 200 for r in ranks)

    def test_rank_distribution_semantic(self, small_generated):
        ranks = duplicate_rank_distribution(small_generated, "semantic")
        assert len(ranks) == len(small_generated.groundtruth)

    def test_syntactic_concentrates_on_top(self, small_generated):
        """The paper's Figures 4-6 pattern: syntactic ranks duplicates
        higher than semantic representations."""
        syntactic = duplicate_rank_distribution(small_generated, "syntactic")
        semantic = duplicate_rank_distribution(small_generated, "semantic")
        top_syntactic = sum(1 for r in syntactic if r == 0)
        top_semantic = sum(1 for r in semantic if r == 0)
        assert top_syntactic >= top_semantic

    def test_rank_distribution_reverse(self, small_generated):
        ranks = duplicate_rank_distribution(
            small_generated, "syntactic", reverse=True
        )
        assert len(ranks) == len(small_generated.groundtruth)

    def test_invalid_representation(self, small_generated):
        with pytest.raises(ValueError):
            duplicate_rank_distribution(small_generated, "magic")

    def test_rank_histogram_bins(self):
        histogram = rank_histogram([0, 0, 1, 5, 300])
        total = sum(count for __, count in histogram)
        assert total == 5
        assert histogram[0] == ("[0,1)", 2)

    def test_series_generation(self):
        series = figure04_06_series(["d1"])
        assert len(series) == 2  # syntactic + semantic
        assert {s.representation for s in series} == {"syntactic", "semantic"}


class TestRuntimeBreakdown:
    def test_blocking_phases(self, small_generated):
        breakdown = breakdown_filter(
            parameter_free_workflow(), small_generated, "PBW", "a"
        )
        assert "build" in breakdown.phases
        assert breakdown.total > 0.0
        assert abs(sum(breakdown.fraction(p) for p in breakdown.phases) - 1.0) < 1e-9

    def test_nn_phases(self, small_generated):
        breakdown = breakdown_filter(
            KNNJoin(k=2, model="C3G"), small_generated, "kNNJ", "a"
        )
        assert set(breakdown.phases) == {"preprocess", "index", "query"}

    def test_render(self, small_generated):
        breakdown = breakdown_filter(
            KNNJoin(k=1), small_generated, "kNNJ", "a"
        )
        assert "kNNJ" in breakdown.render()

    def test_breakdown_from_matrix(self, tmp_path):
        matrix = ExperimentMatrix(
            methods=["kNNJ", "PBW"],
            datasets=["d1"],
            cache_path=tmp_path / "m.json",
        )
        matrix.run_all(verbose=False)
        breakdowns = breakdown_from_matrix(matrix, ["kNNJ", "PBW"], "d1", "a")
        assert len(breakdowns) == 2
        names = {b.method for b in breakdowns}
        assert names == {"kNNJ", "PBW"}


def test_cached_epsilon_join_thresholds_lie_on_the_grid():
    """The committed cache holds the thresholds the tuner selects.

    The ε-Join grid is snapped to two decimals, so a cached threshold off
    it (say 0.5700000000000001) predates the snap and rebuilds a filter
    the tuner never chose.
    """
    import json
    from pathlib import Path

    cache = Path(__file__).resolve().parents[1] / ".bench_cache" / "matrix.json"
    cells = json.loads(cache.read_text())["cells"]
    thresholds = {
        key: cell["params"]["threshold"]
        for key, cell in cells.items()
        if cell["method"] == "EJ" and "threshold" in cell["params"]
    }
    assert thresholds
    off_grid = {k: t for k, t in thresholds.items() if round(t, 2) != t}
    assert not off_grid
