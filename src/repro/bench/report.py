"""Paper-vs-measured report generation (the EXPERIMENTS.md engine).

Builds a markdown report from a populated experiment matrix: per-table
comparison against the paper's published values (where available), method
ranking correlations, per-family winners and the qualitative claims of
Section VII with their measured verdicts.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from ..core import registry
from .harness import ExperimentMatrix, schema_settings
from .paper_reference import (
    PAPER_INFEASIBLE,
    paper_pq,
    spearman_correlation,
)

__all__ = ["ReportBuilder"]

_FAMILIES: Dict[str, Tuple[str, ...]] = {
    family: registry.family_codes(family, baselines=False)
    for family in registry.FAMILIES
}

_ALL_TUNED = sum(_FAMILIES.values(), ())

#: The unsupervised blocking workflows the learned family (SMB) is
#: measured against — its own row is excluded from its yardstick.
_UNSUPERVISED_BLOCKING = tuple(
    m for m in _FAMILIES["blocking"] if m != "SMB"
)

#: The families of the paper's Table VII, which has no SMB row: the
#: family-winner comparison and the claims read these.
_PAPER_FAMILIES: Dict[str, Tuple[str, ...]] = {
    **_FAMILIES, "blocking": _UNSUPERVISED_BLOCKING
}

#: Claim 3 compares the syntactic methods (blocking + sparse joins) with
#: the embedding-based ones; MH-LSH sits in the dense family but hashes
#: shingles, so it belongs on the syntactic side and is dropped from the
#: semantic list.
_SYNTACTIC = _PAPER_FAMILIES["blocking"] + _PAPER_FAMILIES["sparse"]
_SEMANTIC = tuple(m for m in _PAPER_FAMILIES["dense"] if m != "MH-LSH")


class ReportBuilder:
    """Renders the paper-vs-measured analysis from a populated matrix."""

    def __init__(self, matrix: ExperimentMatrix) -> None:
        self.matrix = matrix

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------

    def _settings(self) -> List[Tuple[str, str, str]]:
        """(dataset, setting, paper label) triples in scope."""
        triples = []
        for dataset in self.matrix.datasets:
            for setting in schema_settings(dataset):
                triples.append(
                    (dataset, setting, f"D{setting}{dataset[1:]}")
                )
        return triples

    def _measured_pq(
        self, method: str, dataset: str, setting: str
    ) -> Optional[float]:
        # get() reports failed (timeout/oom/error) cells as None, so
        # every statistic below is computed over completed cells only.
        cell = self.matrix.get(method, dataset, setting)
        return cell.pq if cell is not None else None

    def failure_summary(self) -> List[Tuple[str, str, str]]:
        """(cell label, status, error) of every non-ok cell, if any."""
        return [
            (
                f"{cell.method} @ D{cell.setting}{cell.dataset[1:]}",
                cell.status,
                cell.error,
            )
            for cell in self.matrix.failures()
        ]

    # ------------------------------------------------------------------
    # Sections.
    # ------------------------------------------------------------------

    def ranking_correlations(self) -> List[Tuple[str, float, int]]:
        """Per setting: Spearman correlation between the paper's method
        ranking (by PQ) and ours, over the methods present in both."""
        rows = []
        for dataset, setting, label in self._settings():
            paper_scores: List[float] = []
            our_scores: List[float] = []
            for method in _ALL_TUNED:
                reference = paper_pq(method, label)
                measured = self._measured_pq(method, dataset, setting)
                if reference is None or measured is None:
                    continue
                paper_scores.append(reference)
                our_scores.append(measured)
            if len(paper_scores) >= 3:
                rho = spearman_correlation(paper_scores, our_scores)
                rows.append((label, rho, len(paper_scores)))
        return rows

    def family_winners(self) -> List[Tuple[str, str, str]]:
        """Per setting: (label, paper's winner family, our winner family),
        where the winner is the family holding the best feasible PQ."""
        rows = []
        for dataset, setting, label in self._settings():
            def best_family(lookup) -> Optional[str]:
                best_value, best_name = -1.0, None
                for family, methods in _PAPER_FAMILIES.items():
                    for method in methods:
                        value = lookup(method)
                        if value is not None and value > best_value:
                            best_value, best_name = value, family
                return best_name

            paper_family = best_family(lambda m: paper_pq(m, label))
            ours_family = best_family(
                lambda m: self._measured_pq(m, dataset, setting)
            )
            if paper_family and ours_family:
                rows.append((label, paper_family, ours_family))
        return rows

    def infeasibility_agreement(self) -> Tuple[int, int]:
        """How often our baseline infeasibility matches the paper's red
        cells: returns (agreements, comparisons) over baseline methods."""
        agreements = comparisons = 0
        for dataset, setting, label in self._settings():
            for method in registry.baseline_codes():
                cell = self.matrix.get(method, dataset, setting)
                if cell is None:
                    continue
                comparisons += 1
                paper_red = (method, label) in PAPER_INFEASIBLE
                if paper_red == (not cell.feasible):
                    agreements += 1
        return agreements, comparisons

    def pruning_summary(
        self,
    ) -> List[Tuple[str, int, int, int]]:
        """Cost-based tuning effect per cell.

        Returns ``(cell label, enumerated, pruned, executed)`` for every
        completed cell that counted its grid decision points
        (``configurations_enumerated > 0``; every tuner does, with or
        without ``--prune``, so only cells cached before the counter
        existed are omitted).  ``executed`` is ``enumerated - pruned``:
        the grid points whose filter actually ran (the finer-grained
        per-filter count stays in ``configurations_tried``).
        """
        rows = []
        for dataset, setting, label in self._settings():
            for method in _ALL_TUNED:
                cell = self.matrix.get(method, dataset, setting)
                if cell is None or cell.configurations_enumerated <= 0:
                    continue
                enumerated = cell.configurations_enumerated
                pruned = cell.configurations_pruned
                rows.append(
                    (f"{method} @ {label}", enumerated, pruned,
                     enumerated - pruned)
                )
        return rows

    def learned_summary(
        self,
    ) -> List[Tuple[str, float, float, str, float, float, bool]]:
        """Per setting: SMB vs the best unsupervised blocking workflow.

        Returns ``(label, smb_pc, smb_pq, best_code, best_pc, best_pq,
        verdict)`` for every setting where both sides completed.  The
        yardstick is the unsupervised workflow Problem 1 itself would
        pick (best PQ among feasible cells, best PC otherwise); the
        verdict is True when SMB matches or beats its PC at *comparable
        PQ* — defined as SMB retaining at least half the yardstick's PQ,
        so a recall win bought with an order-of-magnitude PQ collapse
        does not count.
        """
        rows = []
        for dataset, setting, label in self._settings():
            smb = self.matrix.get("SMB", dataset, setting)
            if smb is None:
                continue
            best = None
            for method in _UNSUPERVISED_BLOCKING:
                cell = self.matrix.get(method, dataset, setting)
                if cell is None:
                    continue
                if best is None:
                    best = cell
                elif cell.feasible != best.feasible:
                    best = cell if cell.feasible else best
                elif cell.feasible:
                    best = cell if cell.pq > best.pq else best
                else:
                    best = cell if cell.pc > best.pc else best
            if best is None:
                continue
            verdict = (
                smb.pc >= best.pc - 1e-9 and smb.pq >= 0.5 * best.pq
            )
            rows.append(
                (label, smb.pc, smb.pq, best.method, best.pc, best.pq,
                 verdict)
            )
        return rows

    def claim_verdicts(self) -> List[Tuple[str, bool, str]]:
        """The Section-VII conclusions, evaluated on our matrix."""
        verdicts: List[Tuple[str, bool, str]] = []

        # 1. Fine-tuning beats defaults.
        wins = losses = 0
        for dataset, setting, __ in self._settings():
            for tuned, base in (("SBW", "PBW"), ("kNNJ", "DkNN")):
                t = self.matrix.get(tuned, dataset, setting)
                b = self.matrix.get(base, dataset, setting)
                if t and b:
                    wins += t.pq > b.pq
                    losses += t.pq <= b.pq
        verdicts.append(
            (
                "Fine-tuning beats default parameters",
                wins > 3 * losses,
                f"tuned wins {wins}/{wins + losses} PQ comparisons",
            )
        )

        # 2. Cardinality vs similarity thresholds.  The paper's statement
        # is modest: the ε-Join "underperforms kNN-Join in 9 out of 16
        # cases" on PQ, while LSH (the other similarity-threshold family)
        # only reaches recall through explosive candidate sets (checked
        # in claim 4).  We check the kNNJ-vs-EJ share accordingly.
        knn_wins = comparisons = 0
        for dataset, setting, __ in self._settings():
            knn = self.matrix.get("kNNJ", dataset, setting)
            ej = self.matrix.get("EJ", dataset, setting)
            if knn and ej:
                comparisons += 1
                knn_wins += knn.pq >= ej.pq
        verdicts.append(
            (
                "kNN-Join is competitive with / better than the e-Join",
                knn_wins >= comparisons * 0.3,
                f"kNNJ PQ >= EJ PQ in {knn_wins}/{comparisons} cells "
                f"(paper: 9/16)",
            )
        )

        # 3. Syntactic beats semantic representations.
        syntactic_wins = cells = 0
        for dataset, setting, __ in self._settings():
            syn = [
                c.pq for m in _SYNTACTIC
                if (c := self.matrix.get(m, dataset, setting)) and c.feasible
            ]
            sem = [
                c.pq for m in _SEMANTIC
                if (c := self.matrix.get(m, dataset, setting)) and c.feasible
            ]
            if syn and sem:
                cells += 1
                syntactic_wins += max(syn) >= max(sem)
        verdicts.append(
            (
                "Syntactic representations beat semantic ones",
                syntactic_wins > cells * 0.7,
                f"syntactic max-PQ wins {syntactic_wins}/{cells} cells",
            )
        )

        # 4. LSH reaches recall only with huge candidate sets.
        lsh_candidates = []
        knn_candidates = []
        for dataset, setting, __ in self._settings():
            for m in ("MH-LSH", "CP-LSH", "HP-LSH"):
                c = self.matrix.get(m, dataset, setting)
                if c:
                    lsh_candidates.append(c.candidates)
            for m in ("kNNJ", "FAISS"):
                c = self.matrix.get(m, dataset, setting)
                if c:
                    knn_candidates.append(c.candidates)
        ok = bool(lsh_candidates) and statistics.median(
            lsh_candidates
        ) > statistics.median(knn_candidates)
        verdicts.append(
            (
                "LSH needs far larger candidate sets",
                ok,
                f"median |C|: LSH={statistics.median(lsh_candidates):.0f} vs "
                f"cardinality kNN={statistics.median(knn_candidates):.0f}",
            )
        )

        # 5. DeepBlocker is the slowest NN method.
        slower = totals = 0
        for dataset, setting, __ in self._settings():
            db = self.matrix.get("DB", dataset, setting)
            faiss = self.matrix.get("FAISS", dataset, setting)
            if db and faiss:
                totals += 1
                slower += db.runtime > faiss.runtime
        verdicts.append(
            (
                "DeepBlocker trades run-time for effectiveness",
                slower >= totals * 0.8,
                f"DB slower than FAISS in {slower}/{totals} cells",
            )
        )
        return verdicts

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------

    def render_markdown(self) -> str:
        lines: List[str] = []
        lines.append("## Paper-vs-measured analysis (auto-generated)")
        lines.append("")
        lines.append("### Method-ranking correlation per setting")
        lines.append("")
        lines.append(
            "Spearman correlation between the paper's PQ-based method"
            " ranking and ours (higher = same relative ordering):"
        )
        lines.append("")
        lines.append("| setting | Spearman rho | methods compared |")
        lines.append("|---|---|---|")
        correlations = self.ranking_correlations()
        for label, rho, count in correlations:
            lines.append(f"| {label} | {rho:+.2f} | {count} |")
        if correlations:
            mean_rho = statistics.mean(rho for __, rho, __ in correlations)
            lines.append(f"| **mean** | **{mean_rho:+.2f}** | |")
        lines.append("")
        lines.append("### Winning family per setting")
        lines.append("")
        lines.append("| setting | paper | measured | agree |")
        lines.append("|---|---|---|---|")
        agree = 0
        winners = self.family_winners()
        for label, paper_family, our_family in winners:
            match = paper_family == our_family
            agree += match
            lines.append(
                f"| {label} | {paper_family} | {our_family} |"
                f" {'yes' if match else 'no'} |"
            )
        if winners:
            lines.append(
                f"\nFamily winners agree in {agree}/{len(winners)} settings."
            )
        lines.append("")
        lines.append("### Conclusion-by-conclusion verdicts")
        lines.append("")
        lines.append("| claim | holds | evidence |")
        lines.append("|---|---|---|")
        for claim, holds, evidence in self.claim_verdicts():
            lines.append(
                f"| {claim} | {'yes' if holds else 'NO'} | {evidence} |"
            )
        agreements, comparisons = self.infeasibility_agreement()
        lines.append("")
        lines.append(
            f"Baseline feasibility (PC >= 0.9 reached or not) matches the"
            f" paper's red-cell pattern in {agreements}/{comparisons}"
            f" baseline cells."
        )
        learned = self.learned_summary()
        if learned:
            lines.append("")
            lines.append("### Learned meta-blocking (SMB)")
            lines.append("")
            lines.append(
                "The supervised family against the best unsupervised"
                " blocking workflow of each setting (the Problem-1 pick);"
                " 'holds' = SMB matches or beats its PC while retaining"
                " at least half its PQ:"
            )
            lines.append("")
            lines.append(
                "| setting | SMB PC | SMB PQ | best unsupervised |"
                " PC | PQ | holds |"
            )
            lines.append("|---|---|---|---|---|---|---|")
            holds = 0
            for label, smb_pc, smb_pq, code, pc, pq, verdict in learned:
                holds += verdict
                lines.append(
                    f"| {label} | {smb_pc:.3f} | {smb_pq:.4f} | {code} |"
                    f" {pc:.3f} | {pq:.4f} |"
                    f" {'yes' if verdict else 'NO'} |"
                )
            lines.append(
                f"\nSMB matches or beats the best unsupervised workflow's"
                f" PC at comparable PQ in {holds}/{len(learned)} settings."
            )
        pruning = self.pruning_summary()
        # Cells tuned without ``--prune`` still count their grid; the
        # section only reports a matrix in which something was pruned.
        if any(row[2] for row in pruning):
            lines.append("")
            lines.append("### Cost-based grid pruning")
            lines.append("")
            lines.append(
                "Grid configurations discarded from cardinality bounds"
                " before any filter ran (the selected configuration is"
                " provably unchanged):"
            )
            lines.append("")
            lines.append("| cell | enumerated | pruned | executed |")
            lines.append("|---|---|---|---|")
            for label, enumerated, pruned_n, executed in pruning:
                lines.append(
                    f"| {label} | {enumerated} | {pruned_n} | {executed} |"
                )
            total_enumerated = sum(row[1] for row in pruning)
            total_pruned = sum(row[2] for row in pruning)
            lines.append(
                f"\nOverall {total_pruned}/{total_enumerated} grid"
                f" configurations"
                f" ({total_pruned / total_enumerated:.0%}) were pruned"
                f" without execution."
            )
        failures = self.failure_summary()
        if failures:
            lines.append("")
            lines.append("### Failed cells (degraded to '-')")
            lines.append("")
            lines.append(
                "These cells did not complete under the execution policy"
                " and are excluded from every statistic above:"
            )
            lines.append("")
            lines.append("| cell | status | error |")
            lines.append("|---|---|---|")
            for label, status, error in failures:
                lines.append(f"| {label} | {status} | {error} |")
        return "\n".join(lines)
