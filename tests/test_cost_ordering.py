"""Cost-ordered grid search: cheap-first evaluation, identical winners."""

from repro.core.candidates import CandidateSet
from repro.core.filters import Filter
from repro.core.optimizer import GridSearchOptimizer
from repro.dense.minhash import MinHashLSH
from repro.tuning.dense import LSHTuner


class FakeFilter(Filter):
    """Returns a canned candidate set; used to script exact outcomes."""

    name = "fake"

    def __init__(self, pairs):
        super().__init__()
        self._pairs = list(pairs)

    def _run(self, left, right, attribute):
        return CandidateSet(self._pairs)


def _winner_fields(result):
    return (result.params, result.pc, result.pq, result.candidates,
            result.feasible)


class TestCostOrdering:
    def _scripted_search(self, tiny_dataset, cost, should_prune=None):
        gt = sorted(tiny_dataset.groundtruth)
        outcomes = {
            # Infeasible: one duplicate found, tiny candidate set.
            1: [gt[0]],
            # Feasible, diluted: all duplicates + noise pairs.
            2: gt + [(0, 3), (3, 0), (1, 3)],
            # Feasible, perfect PQ — the winner.
            3: list(gt),
            # Exact quality tie with config 3 (same PQ, same PC).
            4: list(gt),
        }
        optimizer = GridSearchOptimizer(target_recall=0.6)
        return optimizer.search(
            [{"id": i} for i in sorted(outcomes)],
            lambda id: FakeFilter(outcomes[id]),
            tiny_dataset,
            cost=cost,
            should_prune=should_prune,
        )

    def test_scripted_winner_identical_with_and_without_cost(
        self, tiny_dataset
    ):
        plain = self._scripted_search(tiny_dataset, cost=None)
        # Reversed cost order: the tied config 4 is evaluated before 3.
        reordered = self._scripted_search(
            tiny_dataset, cost=lambda config: -config["id"]
        )
        assert _winner_fields(plain) == _winner_fields(reordered)
        # Enumeration-order semantics: the FIRST of the tied maximal
        # configurations wins, even though cost order saw 4 first.
        assert plain.params == {"id": 3}
        assert reordered.params == {"id": 3}

    def test_cost_order_with_sound_prune_rule_keeps_winner(
        self, tiny_dataset
    ):
        def should_prune(config, best):
            # Sound rule: nothing strictly beats a feasible PQ=1 incumbent.
            return best.feasible and best.pq == 1.0

        plain = self._scripted_search(tiny_dataset, cost=None)
        # Cost order evaluates the winner (3) first; configs 1 and 2
        # precede it in enumeration order so the index guard forces
        # their evaluation, while the tied config 4 follows it and is
        # legitimately pruned.
        pruned = self._scripted_search(
            tiny_dataset,
            cost=lambda config: 0 if config["id"] == 3 else config["id"],
            should_prune=should_prune,
        )
        assert _winner_fields(plain) == _winner_fields(pruned)
        assert pruned.configurations_pruned == 1
        assert pruned.configurations_tried == 3
        assert pruned.configurations_enumerated == 4

    def test_earlier_index_never_pruned_even_when_tied(self, tiny_dataset):
        # A rule that would prune config 3 as "cannot strictly beat the
        # tied incumbent 4" must not fire: 3 precedes the incumbent in
        # enumeration order, so it is evaluated and takes the win.
        def should_prune(config, best):
            return best.feasible and best.pq == 1.0

        result = self._scripted_search(
            tiny_dataset,
            cost=lambda config: -config["id"],
            should_prune=should_prune,
        )
        assert result.params == {"id": 3}

    def test_minhash_grid_winner_unchanged_by_cost_order(self, tiny_dataset):
        # The real stochastic filter: evaluation reseeds deterministically,
        # so enumeration order and cheap-first order must pick the same
        # winner, field for field.
        grid = [
            {"bands": 32, "rows": 2, "shingle_k": 3},
            {"bands": 8, "rows": 16, "shingle_k": 3},
            {"bands": 16, "rows": 4, "shingle_k": 5},
        ]
        tuner = LSHTuner("mh-lsh", target_recall=0.5)

        def run(cost):
            return GridSearchOptimizer(
                target_recall=0.5, repetitions=2
            ).search(
                list(grid),
                lambda **config: MinHashLSH(**config),
                tiny_dataset,
                cost=cost,
            )

        plain = run(None)
        ordered = run(tuner._config_cost)
        assert _winner_fields(plain) == _winner_fields(ordered)

    def test_lsh_cost_heuristics_rank_sensibly(self):
        mh = LSHTuner("mh-lsh")
        assert mh._config_cost(
            {"bands": 8, "rows": 2, "shingle_k": 3, "cleaning": False}
        ) < mh._config_cost(
            {"bands": 64, "rows": 8, "shingle_k": 3, "cleaning": False}
        )
        assert mh._config_cost(
            {"bands": 8, "rows": 2, "shingle_k": 3, "cleaning": False}
        ) < mh._config_cost(
            {"bands": 8, "rows": 2, "shingle_k": 3, "cleaning": True}
        )
