"""Unit tests for Comparison Propagation and Meta-blocking."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.blocks import Block, BlockCollection
from repro.blocking.building import StandardBlocking
from repro.blocking.metablocking import (
    PRUNING_ALGORITHMS,
    WEIGHTING_SCHEMES,
    ComparisonPropagation,
    MetaBlocking,
    PairGraph,
    prune_mask,
)
from repro.core.fastpairs import encode_pairs
from repro.datasets.registry import load_dataset


@pytest.fixture()
def blocks():
    """(0,0) co-occurs twice (strong), other pairs once (weak)."""
    return BlockCollection(
        [
            Block("k1", (0,), (0,)),
            Block("k2", (0, 1), (0, 1)),
            Block("k3", (2,), (2,)),
        ]
    )


class TestComparisonPropagation:
    def test_removes_redundant_pairs(self, blocks):
        candidates = ComparisonPropagation().clean(blocks)
        # (0,0) appears in k1 and k2 but is counted once.
        assert len(candidates) == 5

    def test_no_recall_loss(self, blocks):
        candidates = ComparisonPropagation().clean(blocks)
        for pair in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]:
            assert pair in candidates


class TestPairGraph:
    def test_pair_count(self, blocks):
        graph = PairGraph(blocks)
        assert len(graph) == 5

    def test_common_blocks_counts(self, blocks):
        graph = PairGraph(blocks)
        pairs = {
            (int(l), int(r)): c
            for l, r, c in zip(graph.lefts, graph.rights, graph.common)
        }
        assert pairs[(0, 0)] == 2
        assert pairs[(0, 1)] == 1

    def test_arcs_prefers_smaller_blocks(self, blocks):
        graph = PairGraph(blocks)
        weights = graph.weights("ARCS")
        by_pair = {
            (int(l), int(r)): w
            for l, r, w in zip(graph.lefts, graph.rights, weights)
        }
        # (0,0): 1/1 + 1/4 = 1.25; (2,2): 1/1 = 1.0; (0,1): 1/4.
        assert by_pair[(0, 0)] == pytest.approx(1.25)
        assert by_pair[(2, 2)] == pytest.approx(1.0)
        assert by_pair[(0, 1)] == pytest.approx(0.25)

    def test_cbs_counts(self, blocks):
        graph = PairGraph(blocks)
        weights = graph.weights("CBS")
        assert weights.max() == 2.0

    @pytest.mark.parametrize("scheme", WEIGHTING_SCHEMES)
    def test_all_schemes_produce_finite_nonnegative_weights(self, blocks, scheme):
        graph = PairGraph(blocks)
        weights = graph.weights(scheme)
        assert len(weights) == len(graph)
        assert np.all(np.isfinite(weights))
        assert np.all(weights >= 0.0)

    def test_js_bounded_by_one(self, blocks):
        graph = PairGraph(blocks)
        assert graph.weights("JS").max() <= 1.0

    def test_unknown_scheme(self, blocks):
        with pytest.raises(ValueError):
            PairGraph(blocks).weights("NOPE")

    def test_empty_blocks(self):
        graph = PairGraph(BlockCollection([]))
        assert len(graph) == 0
        assert len(graph.weights("CBS")) == 0

    def test_candidate_set_roundtrip(self, blocks):
        graph = PairGraph(blocks)
        mask = np.ones(len(graph), dtype=bool)
        assert len(graph.candidate_set(mask)) == 5


class TestPruning:
    @pytest.mark.parametrize("algorithm", PRUNING_ALGORITHMS)
    def test_masks_are_boolean_and_sized(self, blocks, algorithm):
        graph = PairGraph(blocks)
        weights = graph.weights("CBS")
        mask = prune_mask(graph, weights, algorithm)
        assert mask.dtype == bool
        assert len(mask) == len(graph)

    @pytest.mark.parametrize("algorithm", PRUNING_ALGORITHMS)
    def test_pruning_keeps_strongest_pair(self, blocks, algorithm):
        # (0,0) has the highest CBS weight; no algorithm should drop it.
        graph = PairGraph(blocks)
        weights = graph.weights("CBS")
        mask = prune_mask(graph, weights, algorithm)
        kept = set(
            zip(graph.lefts[mask].tolist(), graph.rights[mask].tolist())
        )
        assert (0, 0) in kept

    def test_wep_threshold_is_mean(self, blocks):
        graph = PairGraph(blocks)
        weights = graph.weights("CBS")
        mask = prune_mask(graph, weights, "WEP")
        assert set(weights[mask]) == {w for w in weights if w >= weights.mean()}

    def test_rcnp_subset_of_cnp(self, blocks):
        graph = PairGraph(blocks)
        weights = graph.weights("ARCS")
        cnp = prune_mask(graph, weights, "CNP")
        rcnp = prune_mask(graph, weights, "RCNP")
        assert np.all(~rcnp | cnp)  # rcnp implies cnp

    def test_rwnp_subset_of_wnp(self, blocks):
        graph = PairGraph(blocks)
        weights = graph.weights("ARCS")
        wnp = prune_mask(graph, weights, "WNP")
        rwnp = prune_mask(graph, weights, "RWNP")
        assert np.all(~rwnp | wnp)

    def test_unknown_algorithm(self, blocks):
        graph = PairGraph(blocks)
        with pytest.raises(ValueError):
            prune_mask(graph, graph.weights("CBS"), "NOPE")


class TestMetaBlocking:
    def test_validates_names(self):
        with pytest.raises(ValueError):
            MetaBlocking(scheme="BAD")
        with pytest.raises(ValueError):
            MetaBlocking(pruning="BAD")

    def test_clean_returns_subset_of_distinct_pairs(self, blocks):
        full = blocks.distinct_pairs().as_frozenset()
        for scheme in ("CBS", "ARCS"):
            for pruning in ("WEP", "BLAST", "CNP"):
                cleaned = MetaBlocking(scheme, pruning).clean(blocks)
                assert cleaned.as_frozenset() <= full

    def test_prunes_superfluous_pairs(self, blocks):
        cleaned = MetaBlocking("CBS", "RCNP").clean(blocks)
        assert len(cleaned) < 5  # some weak pairs removed

    def test_empty_blocks(self):
        assert len(MetaBlocking().clean(BlockCollection([]))) == 0

    def test_describe(self):
        assert "ECBS" in MetaBlocking("ECBS", "WNP").describe()


class TestDegenerateGraphs:
    """Divide-by-zero / NaN guards on inputs the cleaning pipeline never
    produces but direct construction can (satellite of the SMB PR)."""

    def _assert_all_schemes_finite(self, graph):
        with np.errstate(all="raise"):
            for scheme in WEIGHTING_SCHEMES:
                weights = graph.weights(scheme)
                assert len(weights) == len(graph)
                assert np.all(np.isfinite(weights)), scheme

    def test_zero_comparison_block_is_skipped(self):
        collection = BlockCollection([Block("ok", (0,), (0,))])
        # Bypass the constructor filter: a block with an empty side.
        collection.blocks.append(Block("lonely", (1,), ()))
        graph = PairGraph(collection)  # must not raise ZeroDivisionError
        assert len(graph) == 1
        self._assert_all_schemes_finite(graph)

    def test_single_pair_graph_finite_everywhere(self):
        graph = PairGraph(BlockCollection([Block("k", (3,), (5,))]))
        assert len(graph) == 1
        self._assert_all_schemes_finite(graph)

    def test_duplicate_free_disjoint_singletons(self):
        # Single-entity 1x1 blocks, no entity shared across blocks: the
        # EJS/X2 denominators all hit their minimum values.
        graph = PairGraph(
            BlockCollection(
                [Block(f"k{i}", (i,), (i,)) for i in range(4)]
            )
        )
        assert len(graph) == 4
        self._assert_all_schemes_finite(graph)

    def test_pair_in_every_block(self):
        # JS union == common: the maximal-overlap corner of the formula.
        graph = PairGraph(
            BlockCollection(
                [Block(f"k{i}", (0,), (0,)) for i in range(5)]
            )
        )
        self._assert_all_schemes_finite(graph)
        assert graph.weights("JS")[0] == pytest.approx(1.0)


class TestPruneMaskEdgeCases:
    def test_empty_graph_all_algorithms(self):
        graph = PairGraph(BlockCollection([]))
        for algorithm in PRUNING_ALGORITHMS:
            mask = prune_mask(
                graph, graph.weights("CBS"), algorithm
            )
            assert mask.dtype == bool and len(mask) == 0

    def test_all_identical_weights_keep_everything_weight_based(self):
        # Every weight equals the mean and every group maximum, so the
        # weight-threshold algorithms must retain every pair.
        graph = PairGraph(
            BlockCollection(
                [Block(f"k{i}", (i,), (i,)) for i in range(4)]
            )
        )
        weights = graph.weights("CBS")
        assert len(set(weights.tolist())) == 1
        for algorithm in ("WEP", "WNP", "RWNP", "BLAST"):
            assert np.all(prune_mask(graph, weights, algorithm)), algorithm

    def test_all_identical_weights_cardinality_bounds(self):
        graph = PairGraph(
            BlockCollection(
                [Block(f"k{i}", (i,), (i,)) for i in range(4)]
            )
        )
        weights = graph.weights("CBS")
        for algorithm in ("CEP", "CNP", "RCNP"):
            mask = prune_mask(graph, weights, algorithm)
            assert mask.dtype == bool
            assert 0 < mask.sum() <= len(graph), algorithm

    def test_single_entity_blocks_per_node_algorithms(self):
        # One entity per side in each block: per-node groups have size
        # one, so every per-node algorithm keeps its only member.
        graph = PairGraph(
            BlockCollection(
                [Block(f"k{i}", (i,), (i,)) for i in range(3)]
            )
        )
        weights = graph.weights("ARCS")
        for algorithm in ("CNP", "RCNP", "WNP", "RWNP", "BLAST"):
            assert np.all(prune_mask(graph, weights, algorithm)), algorithm


def _random_blocks(rng, n_blocks, n_entities, max_side):
    """A random block collection; blocks may share and repeat entities."""
    blocks = []
    for index in range(n_blocks):
        left = np.unique(rng.integers(0, n_entities, rng.integers(1, max_side)))
        right = np.unique(rng.integers(0, n_entities, rng.integers(1, max_side)))
        blocks.append(
            Block(f"b{index}", tuple(left.tolist()), tuple(right.tolist()))
        )
    return BlockCollection(blocks)


def _reference_tops(entities, weights, k):
    """Per entity, sort rows by (-weight, row index) and keep the first k."""
    groups = defaultdict(list)
    for row, entity in enumerate(entities.tolist()):
        groups[entity].append(row)
    mask = np.zeros(len(entities), dtype=bool)
    for rows in groups.values():
        rows.sort(key=lambda row: (-weights[row], row))
        mask[rows[:k]] = True
    return mask


def _assert_matches_reference(graph, weights, k):
    left, right = graph.node_ranking(weights).tops(k)
    assert np.array_equal(left, _reference_tops(graph.lefts, weights, k))
    assert np.array_equal(right, _reference_tops(graph.rights, weights, k))


def _max_degree(graph):
    return max(
        np.bincount(graph.lefts).max(), np.bincount(graph.rights).max()
    )


class TestPairGraphRowOrder:
    """evaluate_keys needs sorted-unique keys, which the tuners take from
    masked graph rows without re-sorting."""

    @staticmethod
    def _assert_strictly_increasing(graph):
        step_left = np.diff(graph.lefts)
        step_right = np.diff(graph.rights)
        assert np.all((step_left > 0) | ((step_left == 0) & (step_right > 0)))

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_strictly_increasing_random(self, seed):
        rng = np.random.default_rng(seed)
        graph = PairGraph(_random_blocks(rng, 30, 25, 7))
        assert len(graph) > 0
        self._assert_strictly_increasing(graph)

    def test_largest_right_id_in_an_early_block(self):
        graph = PairGraph(
            BlockCollection(
                [
                    Block("first", (3, 0), (9, 1)),
                    Block("second", (0, 2), (2, 1)),
                    Block("third", (1,), (0,)),
                ]
            )
        )
        self._assert_strictly_increasing(graph)
        assert graph.rights.max() == 9


class TestNodeTops:
    """NodeRanking.tops keeps each entity's k best rows, ties by row index."""

    @pytest.mark.parametrize("seed", range(12))
    def test_heavy_ties_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        graph = PairGraph(_random_blocks(rng, 12, 10, 6))
        values = rng.integers(1, 6)  # one to five distinct weights
        weights = rng.integers(0, values, len(graph)).astype(np.float64)
        max_degree = _max_degree(graph)
        for k in (1, 2, max_degree, max_degree + 1):
            _assert_matches_reference(graph, weights, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zeros_tie(self, seed):
        rng = np.random.default_rng(100 + seed)
        graph = PairGraph(_random_blocks(rng, 12, 10, 6))
        weights = rng.choice([0.0, -0.0, 1.0], len(graph))
        max_degree = _max_degree(graph)
        for k in (1, 2, max_degree, max_degree + 1):
            _assert_matches_reference(graph, weights, k)

    def test_distinct_weights_match_reference(self):
        rng = np.random.default_rng(7)
        graph = PairGraph(_random_blocks(rng, 40, 30, 8))
        weights = rng.random(len(graph))
        for k in (1, 2, 3, _max_degree(graph)):
            _assert_matches_reference(graph, weights, k)

    def test_one_row_groups_keep_everything(self):
        graph = PairGraph(
            BlockCollection([Block(f"k{i}", (i,), (i,)) for i in range(5)])
        )
        left, right = graph.node_ranking(np.arange(5.0)).tops(1)
        assert left.all() and right.all()

    def test_tie_goes_to_lower_row(self):
        # Left entity 0 has three equally weighted rows (0,0), (0,1), (0,2).
        graph = PairGraph(BlockCollection([Block("k", (0,), (0, 1, 2))]))
        left, right = graph.node_ranking(np.ones(3)).tops(2)
        assert left.tolist() == [True, True, False]
        assert right.all()

    def test_empty_graph(self):
        graph = PairGraph(BlockCollection([]))
        left, right = graph.node_ranking(np.zeros(0)).tops(3)
        assert left.dtype == bool and len(left) == 0
        assert right.dtype == bool and len(right) == 0

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_k_below_one(self, blocks, k):
        graph = PairGraph(blocks)
        with pytest.raises(ValueError, match="k must be >= 1"):
            graph.node_ranking(graph.weights("CBS")).tops(k)


class TestCardinalityNodePruningOnRealGraph:
    """CNP/RCNP on a d1 Standard Blocking graph against the reference."""

    @pytest.fixture(scope="class")
    def d1_graph(self):
        dataset = load_dataset("d1")
        blocks = StandardBlocking().build(dataset.left, dataset.right)
        # CNP's k: the mean number of blocks per entity, minus one.
        entities = (max(blocks.left_index()) + 1) + (
            max(blocks.right_index()) + 1
        )
        k = max(1, int(blocks.total_assignments / entities) - 1)
        return PairGraph(blocks), k

    @pytest.mark.parametrize("scheme", WEIGHTING_SCHEMES)
    def test_cnp_and_rcnp_match_reference(self, d1_graph, scheme):
        graph, k = d1_graph
        weights = graph.weights(scheme)
        left = _reference_tops(graph.lefts, weights, k)
        right = _reference_tops(graph.rights, weights, k)
        assert np.array_equal(prune_mask(graph, weights, "CNP"), left | right)
        assert np.array_equal(prune_mask(graph, weights, "RCNP"), left & right)


def reference_graph(blocks):
    """A PairGraph built by the per-block ``repeat``/``tile`` expansion."""
    lefts, rights, arcs = [], [], []
    for block in blocks:
        if not block.comparisons:
            continue
        left = np.asarray(block.left, dtype=np.int64)
        right = np.asarray(block.right, dtype=np.int64)
        lefts.append(np.repeat(left, len(right)))
        rights.append(np.tile(right, len(left)))
        arcs.append(np.full(block.comparisons, 1.0 / block.comparisons))

    def count_map(index):
        if not index:
            return np.zeros(0, dtype=np.int64)
        counts = np.zeros(max(index) + 1, dtype=np.int64)
        for entity, block_ids in index.items():
            counts[entity] = len(block_ids)
        return counts

    graph = object.__new__(PairGraph)
    graph.n_blocks = len(blocks)
    graph.total_assignments = blocks.total_assignments
    if lefts:
        all_rights = np.concatenate(rights)
        width = int(all_rights.max()) + 1
        keys = np.concatenate(lefts) * width + all_rights
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        graph.lefts = unique_keys // width
        graph.rights = unique_keys % width
        graph.common = np.bincount(inverse).astype(np.float64)
        graph.arcs = np.bincount(inverse, weights=np.concatenate(arcs))
    else:
        graph.lefts = np.zeros(0, dtype=np.int64)
        graph.rights = np.zeros(0, dtype=np.int64)
        graph.common = np.zeros(0)
        graph.arcs = np.zeros(0)
    graph._left_blocks = count_map(blocks.left_index())
    graph._right_blocks = count_map(blocks.right_index())
    graph._left_degree = np.bincount(graph.lefts)
    graph._right_degree = np.bincount(graph.rights)
    graph._ranking = None
    return graph


_GRAPH_ARRAYS = (
    "lefts", "rights", "common", "arcs", "_left_blocks", "_right_blocks",
)

# Sides of up to five members over few ids: pairs repeat across blocks
# and a side may list one entity twice.
_side = st.lists(st.integers(0, 9), min_size=1, max_size=5)
_collections = st.lists(st.tuples(_side, _side), max_size=10).map(
    lambda sides: BlockCollection(
        Block(f"b{i}", tuple(left), tuple(right))
        for i, (left, right) in enumerate(sides)
    )
)


class TestPairGraphParity:
    """The flat pair expansion against the per-block construction."""

    @staticmethod
    def _assert_parity(blocks):
        graph, reference = PairGraph(blocks), reference_graph(blocks)
        for name in _GRAPH_ARRAYS:
            ours, theirs = getattr(graph, name), getattr(reference, name)
            assert ours.dtype == theirs.dtype, name
            assert ours.tobytes() == theirs.tobytes(), name
        # An entity listed twice on both sides of a block can leave the
        # JS union at zero; both graphs weigh such a pair 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            for scheme in WEIGHTING_SCHEMES:
                assert (
                    graph.weights(scheme).tobytes()
                    == reference.weights(scheme).tobytes()
                ), scheme
        top = int(graph.rights.max()) + 1 if len(graph) else 1
        for width in (top, top + 1, 1000):
            assert np.array_equal(
                blocks.pair_keys(width),
                encode_pairs(graph.lefts, graph.rights, width),
            ), width

    @settings(max_examples=80, deadline=None)
    @given(_collections)
    def test_matches_per_block_construction(self, blocks):
        self._assert_parity(blocks)

    def test_duplicate_member(self):
        self._assert_parity(
            BlockCollection(
                [Block("a", (0, 0, 1), (2, 2)), Block("b", (0,), (2,))]
            )
        )

    def test_single_block(self):
        self._assert_parity(BlockCollection([Block("a", (3, 1), (0, 4))]))

    def test_empty_collection(self):
        self._assert_parity(BlockCollection([]))

    def test_d1_standard_blocking(self):
        dataset = load_dataset("d1")
        self._assert_parity(
            StandardBlocking().build(dataset.left, dataset.right)
        )
