"""Tests for the paper reference data and the report builder."""

import pytest

from repro.bench.harness import CellResult, ExperimentMatrix
from repro.bench.paper_reference import (
    PAPER_INFEASIBLE,
    PAPER_PQ,
    PAPER_SETTINGS,
    paper_pq,
    paper_ranking,
    spearman_correlation,
)
from repro.bench.report import ReportBuilder


class TestPaperReference:
    def test_sixteen_settings(self):
        assert len(PAPER_SETTINGS) == 16

    def test_all_17_methods_present(self):
        methods = {method for method, __ in PAPER_PQ}
        assert len(methods) == 17

    def test_known_values(self):
        assert paper_pq("SBW", "Da4") == 0.957
        assert paper_pq("kNNJ", "Da9") == 0.877
        assert paper_pq("MH-LSH", "Da10") is None  # out of memory
        assert paper_pq("nope", "Da1") is None

    def test_red_cells(self):
        assert ("DkNN", "Da3") in PAPER_INFEASIBLE
        assert ("SBW", "Da1") not in PAPER_INFEASIBLE

    def test_ranking_orders_by_pq(self):
        ranking = paper_ranking("Da4", ["SBW", "PBW", "kNNJ"])
        assert ranking[0] in ("SBW", "kNNJ")
        assert ranking[-1] == "PBW"

    def test_ranking_skips_missing(self):
        ranking = paper_ranking("Da10", ["MH-LSH", "SBW"])
        assert ranking == ["SBW"]


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        assert spearman_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_averaged(self):
        rho = spearman_correlation([1, 1, 2], [1, 1, 2])
        assert rho == pytest.approx(1.0)

    def test_constant_sequence_zero(self):
        assert spearman_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            spearman_correlation([1], [1, 2])

    def test_matches_scipy(self):
        from scipy.stats import spearmanr

        xs = [0.3, 0.9, 0.1, 0.5, 0.7, 0.2]
        ys = [0.2, 0.8, 0.3, 0.4, 0.9, 0.1]
        expected = spearmanr(xs, ys).statistic
        assert spearman_correlation(xs, ys) == pytest.approx(expected)


def _fake_matrix(tmp_path) -> ExperimentMatrix:
    """A matrix over d1 with hand-planted results mirroring the paper's
    qualitative structure."""
    matrix = ExperimentMatrix(
        datasets=["d1"], cache_path=tmp_path / "m.json"
    )
    planted = {
        "SBW": (0.95, 0.5, 50, 0.01, True),
        "QBW": (0.95, 0.4, 60, 0.02, True),
        "EQBW": (0.95, 0.35, 70, 0.03, True),
        "SABW": (0.95, 0.33, 70, 0.02, True),
        "ESABW": (0.95, 0.30, 80, 0.03, True),
        "PBW": (1.0, 0.01, 3000, 0.01, True),
        "DBW": (0.85, 0.02, 2000, 0.02, False),
        "EJ": (0.92, 0.6, 90, 0.05, True),
        "kNNJ": (0.95, 0.62, 55, 0.04, True),
        "DkNN": (0.88, 0.05, 400, 0.05, False),
        "MH-LSH": (0.91, 0.004, 8000, 0.1, True),
        "CP-LSH": (0.91, 0.006, 5000, 0.5, True),
        "HP-LSH": (0.91, 0.003, 9000, 0.2, True),
        "FAISS": (0.93, 0.25, 60, 0.02, True),
        "SCANN": (0.93, 0.25, 60, 0.03, True),
        "DB": (0.92, 0.2, 65, 0.2, True),
        "DDB": (0.6, 0.03, 300, 0.15, False),
    }
    for method, (pc, pq, cand, rt, feasible) in planted.items():
        for setting in ("a", "b"):
            key = f"{method}|d1|{setting}"
            matrix._results[key] = CellResult(
                method=method, dataset="d1", setting=setting,
                pc=pc, pq=pq, candidates=cand, runtime=rt, feasible=feasible,
            )
    return matrix


class TestReportBuilder:
    def test_ranking_correlations_positive(self, tmp_path):
        report = ReportBuilder(_fake_matrix(tmp_path))
        correlations = report.ranking_correlations()
        assert correlations
        for __, rho, count in correlations:
            assert rho > 0.3  # planted results follow the paper's shape
            assert count >= 10

    def test_family_winners(self, tmp_path):
        report = ReportBuilder(_fake_matrix(tmp_path))
        winners = report.family_winners()
        assert winners
        for label, paper_family, our_family in winners:
            assert paper_family in ("blocking", "sparse", "dense")
            assert our_family in ("blocking", "sparse", "dense")

    def test_smb_alone_is_no_blocking_win(self, tmp_path):
        # Table VII has no SMB row: a setting where only SMB beats the
        # sparse joins is a sparse win, not a blocking one.
        matrix = _fake_matrix(tmp_path)
        for setting in ("a", "b"):
            matrix._results[f"SMB|d1|{setting}"] = CellResult(
                method="SMB", dataset="d1", setting=setting,
                pc=0.95, pq=0.9, candidates=40, runtime=0.1, feasible=True,
            )
        winners = ReportBuilder(matrix).family_winners()
        assert winners
        assert [ours for __, __, ours in winners] == ["sparse"] * len(winners)

    def test_claim_verdicts_all_hold_on_planted_shape(self, tmp_path):
        report = ReportBuilder(_fake_matrix(tmp_path))
        verdicts = report.claim_verdicts()
        assert len(verdicts) == 5
        assert all(holds for __, holds, __ in verdicts)

    def test_markdown_renders(self, tmp_path):
        report = ReportBuilder(_fake_matrix(tmp_path))
        markdown = report.render_markdown()
        assert "Spearman" in markdown
        assert "| claim | holds |" in markdown

    @staticmethod
    def _with_grid_counts(matrix, enumerated, pruned):
        for cell in matrix._results.values():
            cell.configurations_enumerated = enumerated
            cell.configurations_pruned = pruned
        return matrix

    def test_pruning_section_needs_a_pruned_configuration(self, tmp_path):
        matrix = self._with_grid_counts(_fake_matrix(tmp_path), 10, 0)
        markdown = ReportBuilder(matrix).render_markdown()
        assert "Cost-based grid pruning" not in markdown
        assert "were pruned" not in markdown

    def test_pruning_section_renders_when_a_cell_pruned(self, tmp_path):
        matrix = self._with_grid_counts(_fake_matrix(tmp_path), 10, 4)
        markdown = ReportBuilder(matrix).render_markdown()
        assert "### Cost-based grid pruning" in markdown
        assert "Overall 104/260 grid configurations (40%)" in markdown

    def test_infeasibility_agreement_counts(self, tmp_path):
        report = ReportBuilder(_fake_matrix(tmp_path))
        agreements, comparisons = report.infeasibility_agreement()
        assert 0 <= agreements <= comparisons
        assert comparisons == 8  # 4 baselines x 2 settings
