"""Pruning-safety suite: cost-based pruning never changes the selection.

Every method whose tuner consults the cardinality estimators is run
twice per cell — with and without ``prune`` — and the selected
configuration plus its metrics must be byte-identical.  Each cell's
pruned and enumerated grid counts are pinned, so a change to a pruning
rule that prunes differently fails even when it keeps the winner.
Across the two reference cells (a clean dataset and one with a
misplaced key attribute) the pruned share of the enumerated grid must
clear 30%, the acceptance floor of the cost-based-tuning layer.
"""

from __future__ import annotations

import pytest

from repro.datasets.registry import load_dataset
from repro.tuning import tune_method

#: The methods with estimator-driven pruning rules (the embedding-LSH
#: tuners accept the knob but have no sound rule; the dense kNN and SMB
#: tuners do not take it).
PRUNING_METHODS = (
    "EJ", "kNNJ", "SBW", "QBW", "EQBW", "SABW", "ESABW", "MH-LSH",
)

#: (dataset, use key attribute): d1 is clean — most combinations stay
#: feasible and pruning is mild; d5's schema-based setting points at a
#: low-coverage attribute, so infeasibility pruning dominates.
CELLS = (("d1", False), ("d5", True))

#: (configurations_enumerated, configurations_pruned) of the pruned
#: pass, per (method, dataset).
PINNED_COUNTS = {
    ("EJ", "d1"): (20, 0),
    ("EJ", "d5"): (20, 20),
    ("kNNJ", "d1"): (40, 10),
    ("kNNJ", "d5"): (40, 36),
    ("SBW", "d1"): (1, 0),
    ("SBW", "d5"): (1, 0),
    ("QBW", "d1"): (2, 0),
    ("QBW", "d5"): (2, 1),
    ("EQBW", "d1"): (2, 0),
    ("EQBW", "d5"): (2, 1),
    ("SABW", "d1"): (6, 0),
    ("SABW", "d5"): (6, 3),
    ("ESABW", "d1"): (6, 0),
    ("ESABW", "d5"): (6, 3),
    ("MH-LSH", "d1"): (12, 0),
    ("MH-LSH", "d5"): (12, 11),
}

#: Aggregated (enumerated, pruned) counters across the parametrized
#: cells, consumed by the module's final aggregate assertion.
_TOTALS = {"enumerated": 0, "pruned": 0, "cells": 0}


@pytest.fixture(scope="module")
def datasets():
    return {name: load_dataset(name) for name, __ in CELLS}


@pytest.mark.parametrize("dataset_name,use_key", CELLS)
@pytest.mark.parametrize("method", PRUNING_METHODS)
def test_pruning_preserves_selection(method, dataset_name, use_key, datasets):
    dataset = datasets[dataset_name]
    attribute = dataset.key_attribute if use_key else None

    plain = tune_method(method, dataset, attribute, prune=False)
    pruned = tune_method(method, dataset, attribute, prune=True)

    assert pruned.params == plain.params
    assert pruned.pc == plain.pc
    assert pruned.pq == plain.pq
    assert pruned.candidates == plain.candidates
    assert pruned.feasible == plain.feasible

    # The unpruned pass must not discard anything, and the pruned pass
    # must report the same grid size it was asked to cover.
    assert plain.configurations_pruned == 0
    assert pruned.configurations_enumerated == (
        plain.configurations_enumerated
    )
    assert (
        pruned.configurations_enumerated,
        pruned.configurations_pruned,
    ) == PINNED_COUNTS[(method, dataset_name)]

    _TOTALS["enumerated"] += pruned.configurations_enumerated
    _TOTALS["pruned"] += pruned.configurations_pruned
    _TOTALS["cells"] += 1


def test_aggregate_pruned_fraction_clears_floor():
    expected_cells = len(PRUNING_METHODS) * len(CELLS)
    if _TOTALS["cells"] < expected_cells:
        pytest.skip(
            "aggregate needs the full parametrized run"
            f" ({_TOTALS['cells']}/{expected_cells} cells seen)"
        )
    assert _TOTALS["enumerated"] > 0
    fraction = _TOTALS["pruned"] / _TOTALS["enumerated"]
    assert fraction >= 0.30, (
        f"only {fraction:.1%} of {_TOTALS['enumerated']} grid"
        " configurations were pruned (floor: 30%)"
    )
