"""Pruning-safety suite: cost-based pruning never changes the selection.

Each method is run twice per cell — with and without ``prune`` — and the
selected configuration plus its metrics must be byte-identical.  The
kNN-Join tuner is the only one with a prune rule: its pruned and
enumerated grid counts are pinned, so a change to the rule that prunes
differently fails even when it keeps the winner, and across the two
reference cells (a clean dataset and one with a misplaced key attribute)
its pruned share of the enumerated grid must clear 30%.  For every other
method ``prune=True`` must prune nothing.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core import registry
from repro.datasets.registry import load_dataset
from repro.tuning import FINE_TUNED_METHODS, tune_method

#: The methods tuned in both modes here: kNN-Join, the one method with a
#: prune rule, plus the sparse, blocking and MinHash tuners, which must
#: treat ``prune=True`` as a no-op.  (The embedding tuners take seconds to
#: minutes per cell; ``test_prune_reaches_only_knnj`` covers them.)
PARITY_METHODS = (
    "EJ", "kNNJ", "SBW", "QBW", "EQBW", "SABW", "ESABW", "MH-LSH",
)

#: (dataset, use key attribute): d1 is clean — most combinations stay
#: feasible and pruning is mild; d5's schema-based setting points at a
#: low-coverage attribute, so infeasibility pruning dominates.
CELLS = (("d1", False), ("d5", True))

#: (configurations_enumerated, configurations_pruned) of kNN-Join's
#: pruned pass, per dataset.
PINNED_COUNTS = {
    ("kNNJ", "d1"): (40, 10),
    ("kNNJ", "d5"): (40, 36),
}

#: Aggregated (enumerated, pruned) counters of the kNN-Join cells,
#: consumed by the module's final aggregate assertion.
_TOTALS = {"enumerated": 0, "pruned": 0, "cells": 0}


@pytest.fixture(scope="module")
def datasets():
    return {name: load_dataset(name) for name, __ in CELLS}


@pytest.mark.parametrize("dataset_name,use_key", CELLS)
@pytest.mark.parametrize("method", PARITY_METHODS)
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
    if method != "kNNJ":
        assert pruned.configurations_pruned == 0
        assert pruned.configurations_tried == plain.configurations_tried
        return
    assert (
        pruned.configurations_enumerated,
        pruned.configurations_pruned,
    ) == PINNED_COUNTS[(method, dataset_name)]

    _TOTALS["enumerated"] += pruned.configurations_enumerated
    _TOTALS["pruned"] += pruned.configurations_pruned
    _TOTALS["cells"] += 1


@pytest.mark.parametrize("code", FINE_TUNED_METHODS)
def test_prune_reaches_only_knnj(code):
    # ``prune`` stays a registry knob for every tuned method, but only
    # the kNN-Join tuner takes it: for the others ``prune=True`` builds
    # the very tuner ``prune=False`` does.
    tuner = registry.make_tuner(code, prune=True)
    takes_prune = "prune" in inspect.signature(type(tuner)).parameters
    assert takes_prune is (code == "kNNJ")
    assert hasattr(tuner, "prune") is (code == "kNNJ")


def test_aggregate_pruned_fraction_clears_floor():
    expected_cells = len(PINNED_COUNTS)
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
