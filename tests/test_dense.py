"""Unit tests for the dense NN substrate: embeddings, indexes, LSH."""

import numpy as np
import pytest

from repro.core.metrics import pair_completeness
from repro.core.profile import EntityCollection, EntityProfile
from repro.dense.autoencoder import Autoencoder
from repro.dense.crosspolytope import CrossPolytopeLSH, fwht
from repro.dense.deepblocker import DeepBlocker
from repro.dense.embeddings import HashedNGramEmbedder
from repro.dense.flat_index import FlatIndex
from repro.dense.hyperplane import HyperplaneLSH, probe_sequence
from repro.dense.knn_search import FaissKNN, ScannKNN
from repro.dense.minhash import MinHashLSH
from repro.dense.partitioned import PartitionedIndex, ProductQuantizer, kmeans


class TestHashedNGramEmbedder:
    def test_deterministic(self):
        a = HashedNGramEmbedder().embed_text("wireless keyboard")
        b = HashedNGramEmbedder().embed_text("wireless keyboard")
        np.testing.assert_array_equal(a, b)

    def test_dimension(self):
        assert HashedNGramEmbedder(dim=300).embed_text("x").shape == (300,)

    def test_normalized(self):
        vector = HashedNGramEmbedder().embed_text("wireless keyboard")
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-5)

    def test_empty_text_is_zero_vector(self):
        vector = HashedNGramEmbedder().embed_text("")
        assert np.allclose(vector, 0.0)

    def test_similar_strings_closer_than_dissimilar(self):
        embedder = HashedNGramEmbedder()
        base = embedder.embed_text("wireless keyboard")
        typo = embedder.embed_text("wireles keyboard")
        other = embedder.embed_text("espresso machine")
        assert base @ typo > base @ other

    def test_subword_composition_handles_oov(self):
        embedder = HashedNGramEmbedder()
        # A made-up domain term still embeds near its morphological kin.
        a = embedder.embed_text("sonacore")
        b = embedder.embed_text("sonacores")
        assert a @ b > 0.5

    def test_embed_texts_matrix(self):
        matrix = HashedNGramEmbedder(dim=64).embed_texts(["a b", "c d", ""])
        assert matrix.shape == (3, 64)

    def test_embed_texts_empty_list(self):
        assert HashedNGramEmbedder(dim=16).embed_texts([]).shape == (0, 16)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HashedNGramEmbedder(dim=0)
        with pytest.raises(ValueError):
            HashedNGramEmbedder(ngram_range=(4, 2))


class TestFlatIndex:
    def test_exact_l2_neighbors(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((50, 8)).astype(np.float32)
        index = FlatIndex(vectors, metric="l2")
        ids, __ = index.search(vectors[:5], k=1)
        np.testing.assert_array_equal(ids[:, 0], np.arange(5))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((40, 6)).astype(np.float32)
        queries = rng.standard_normal((7, 6)).astype(np.float32)
        index = FlatIndex(vectors, metric="l2")
        ids, __ = index.search(queries, k=3)
        for q, row in zip(queries, ids):
            distances = np.linalg.norm(vectors - q, axis=1)
            expected = set(np.argsort(distances)[:3].tolist())
            assert set(row.tolist()) == expected

    def test_dot_metric(self):
        vectors = np.eye(4, dtype=np.float32)
        index = FlatIndex(vectors, metric="dot")
        ids, __ = index.search(np.array([[0.0, 1.0, 0.0, 0.0]]), k=1)
        assert ids[0, 0] == 1

    def test_k_clipped_to_index_size(self):
        index = FlatIndex(np.eye(3, dtype=np.float32))
        ids, __ = index.search(np.eye(3, dtype=np.float32), k=10)
        assert ids.shape == (3, 3)

    def test_blocked_queries_consistent(self):
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((30, 5)).astype(np.float32)
        queries = rng.standard_normal((20, 5)).astype(np.float32)
        small = FlatIndex(vectors, block_size=3).search(queries, 2)[0]
        large = FlatIndex(vectors, block_size=1000).search(queries, 2)[0]
        np.testing.assert_array_equal(small, large)

    def test_range_search_l2(self):
        vectors = np.array([[0.0], [1.0], [5.0]], dtype=np.float32)
        index = FlatIndex(vectors, metric="l2")
        hits = index.range_search(np.array([[0.0]], dtype=np.float32), radius=2.0)
        assert set(hits[0].tolist()) == {0, 1}

    def test_empty_index(self):
        index = FlatIndex(np.zeros((0, 4), dtype=np.float32))
        ids, scores = index.search(np.zeros((2, 4), dtype=np.float32), k=3)
        assert ids.shape == (2, 0)

    @pytest.mark.parametrize("n", [0, 3])
    def test_zero_queries(self, n):
        index = FlatIndex(np.ones((n, 4), dtype=np.float32))
        ids, scores = index.search(np.zeros((0, 4), dtype=np.float32), k=2)
        assert ids.shape == scores.shape == (0, min(2, n))
        assert ids.dtype == np.int64 and scores.dtype == np.float32

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            FlatIndex(np.zeros((1, 2)), metric="cosine")

    def test_invalid_k(self):
        index = FlatIndex(np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            index.search(np.zeros((1, 2)), k=0)


class TestKMeans:
    def test_centroid_count(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((100, 4)).astype(np.float32)
        assert kmeans(vectors, 7).shape == (7, 4)

    def test_clusters_capped_at_n(self):
        vectors = np.eye(3, dtype=np.float32)
        assert kmeans(vectors, 10).shape[0] == 3

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((50, 4)).astype(np.float32)
        np.testing.assert_array_equal(
            kmeans(vectors, 5, seed=3), kmeans(vectors, 5, seed=3)
        )

    def test_separable_clusters_found(self):
        a = np.full((20, 2), 0.0, dtype=np.float32)
        b = np.full((20, 2), 100.0, dtype=np.float32)
        centroids = kmeans(np.vstack([a, b]), 2, seed=1)
        values = sorted(centroids[:, 0].tolist())
        assert values[0] == pytest.approx(0.0, abs=1.0)
        assert values[1] == pytest.approx(100.0, abs=1.0)


class TestPartitionedIndex:
    def test_recall_close_to_exact(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((200, 16)).astype(np.float32)
        queries = vectors[:20] + 0.01 * rng.standard_normal((20, 16)).astype(
            np.float32
        )
        index = PartitionedIndex(vectors, num_leaves=8)
        results = index.search(queries, k=1, leaves_to_search=8)
        hits = sum(1 for q, row in enumerate(results) if q in row.tolist())
        assert hits >= 18  # all leaves searched -> essentially exact

    def test_respects_k(self):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((50, 8)).astype(np.float32)
        index = PartitionedIndex(vectors)
        results = index.search(vectors[:3], k=5)
        assert all(len(row) == 5 for row in results)

    def test_quantized_scoring_runs(self):
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((80, 20)).astype(np.float32)
        index = PartitionedIndex(vectors, quantize=True)
        results = index.search(vectors[:4], k=3)
        assert all(len(row) == 3 for row in results)

    def test_empty_index(self):
        index = PartitionedIndex(np.zeros((0, 4), dtype=np.float32))
        results = index.search(np.zeros((2, 4), dtype=np.float32), k=1)
        assert all(len(row) == 0 for row in results)

    def test_product_quantizer_approximates_scores(self):
        rng = np.random.default_rng(6)
        vectors = rng.standard_normal((100, 20)).astype(np.float32)
        pq = ProductQuantizer(vectors, n_subspaces=4, n_codes=16)
        query = vectors[0]
        ids = np.arange(100)
        approx = pq.scores(query, ids, "l2")
        # The query's own vector should rank near the top.
        assert int(np.argmax(approx)) == 0


class TestAutoencoder:
    def test_loss_decreases(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((200, 30)).astype(np.float32)
        model = Autoencoder(30, hidden_dim=16, seed=0)
        hidden0, output0 = model._forward(data)
        initial = float(np.mean((output0 - data) ** 2))
        final = model.fit(data, epochs=15)
        assert final < initial

    def test_encode_shape(self):
        model = Autoencoder(10, hidden_dim=4)
        codes = model.encode(np.zeros((5, 10), dtype=np.float32))
        assert codes.shape == (5, 4)

    def test_empty_fit(self):
        model = Autoencoder(4, hidden_dim=2)
        assert model.fit(np.zeros((0, 4), dtype=np.float32)) == 0.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Autoencoder(0, 4)


class TestFwht:
    def test_self_inverse_up_to_scale(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 8)).astype(np.float32)
        twice = fwht(fwht(x))
        np.testing.assert_allclose(twice, 8 * x, rtol=1e-4)

    def test_known_transform(self):
        x = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)
        np.testing.assert_array_equal(fwht(x), np.ones(4, dtype=np.float32))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.zeros(6, dtype=np.float32))

    def test_orthogonality(self):
        # fwht / sqrt(n) preserves norms.
        rng = np.random.default_rng(9)
        x = rng.standard_normal(16).astype(np.float32)
        y = fwht(x) / np.sqrt(16)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-4)


class TestProbeSequence:
    def test_first_probe_is_exact_bucket(self):
        sequence = probe_sequence(np.array([0.5, 0.1, 0.9]), probes=4)
        assert sequence[0] == ()

    def test_orders_by_margin(self):
        sequence = probe_sequence(np.array([0.5, 0.1, 0.9]), probes=3)
        # The cheapest flip is the lowest-margin bit (index 1).
        assert sequence[1] == (1,)

    def test_length_capped(self):
        sequence = probe_sequence(np.array([0.3, 0.2]), probes=10)
        assert len(sequence) <= 10

    def test_single_probe(self):
        assert probe_sequence(np.array([0.3]), probes=1) == [()]


class TestLSHFilters:
    def test_minhash_finds_near_duplicates(self, tiny_dataset):
        lsh = MinHashLSH(bands=32, rows=2, shingle_k=3)
        candidates = lsh.candidates(tiny_dataset.left, tiny_dataset.right)
        assert pair_completeness(candidates, tiny_dataset.groundtruth) >= 2 / 3

    def test_minhash_threshold_property(self):
        strict = MinHashLSH(bands=4, rows=32)
        loose = MinHashLSH(bands=32, rows=4)
        assert strict.approximate_threshold > loose.approximate_threshold

    def test_minhash_stochastic_flag(self):
        assert MinHashLSH().is_stochastic

    def test_minhash_reseed_changes_output(self, small_generated):
        lsh = MinHashLSH(bands=8, rows=16, shingle_k=3)
        lsh.reseed(0)
        first = lsh.candidates(small_generated.left, small_generated.right)
        lsh.reseed(99)
        second = lsh.candidates(small_generated.left, small_generated.right)
        assert first != second  # virtually certain for 128 permutations

    def test_minhash_invalid_params(self):
        with pytest.raises(ValueError):
            MinHashLSH(bands=0)
        with pytest.raises(ValueError):
            MinHashLSH(shingle_k=0)

    def test_hyperplane_finds_duplicates(self, tiny_dataset):
        lsh = HyperplaneLSH(tables=20, hashes=6, probes=40)
        candidates = lsh.candidates(tiny_dataset.left, tiny_dataset.right)
        assert pair_completeness(candidates, tiny_dataset.groundtruth) >= 2 / 3

    def test_hyperplane_more_tables_more_candidates(self, small_generated):
        few = HyperplaneLSH(tables=2, hashes=10, probes=2, seed=1)
        many = HyperplaneLSH(tables=30, hashes=10, probes=30, seed=1)
        a = few.candidates(small_generated.left, small_generated.right)
        b = many.candidates(small_generated.left, small_generated.right)
        assert len(b) >= len(a)

    def test_hyperplane_invalid(self):
        with pytest.raises(ValueError):
            HyperplaneLSH(tables=0)
        with pytest.raises(ValueError):
            HyperplaneLSH(hashes=63)

    def test_crosspolytope_finds_duplicates(self, tiny_dataset):
        lsh = CrossPolytopeLSH(tables=20, hashes=1, probes=40)
        candidates = lsh.candidates(tiny_dataset.left, tiny_dataset.right)
        assert pair_completeness(candidates, tiny_dataset.groundtruth) >= 2 / 3

    def test_crosspolytope_last_dim_truncation_runs(self, tiny_dataset):
        lsh = CrossPolytopeLSH(tables=4, hashes=2, last_cp_dimension=16)
        candidates = lsh.candidates(tiny_dataset.left, tiny_dataset.right)
        assert len(candidates) >= 0

    def test_crosspolytope_invalid(self):
        with pytest.raises(ValueError):
            CrossPolytopeLSH(tables=0)


class TestDenseKNNFilters:
    def test_faiss_finds_duplicates(self, tiny_dataset):
        knn = FaissKNN(k=1)
        candidates = knn.candidates(tiny_dataset.left, tiny_dataset.right)
        assert pair_completeness(candidates, tiny_dataset.groundtruth) >= 2 / 3

    def test_faiss_candidate_count_linear_in_queries(self, tiny_dataset):
        knn = FaissKNN(k=2)
        candidates = knn.candidates(tiny_dataset.left, tiny_dataset.right)
        assert len(candidates) == 2 * len(tiny_dataset.right)

    def test_scann_bf_close_to_faiss(self, small_generated):
        faiss = FaissKNN(k=3).candidates(
            small_generated.left, small_generated.right
        )
        scann = ScannKNN(k=3, index_type="BF").candidates(
            small_generated.left, small_generated.right
        )
        overlap = faiss.intersection_size(scann)
        assert overlap / len(faiss) > 0.8

    def test_scann_ah_runs(self, tiny_dataset):
        scann = ScannKNN(k=1, index_type="AH")
        assert len(scann.candidates(tiny_dataset.left, tiny_dataset.right)) > 0

    def test_scann_invalid_index_type(self):
        with pytest.raises(ValueError):
            ScannKNN(k=1, index_type="XX")

    def test_deepblocker_runs_and_is_stochastic(self, tiny_dataset):
        db = DeepBlocker(k=1, epochs=2)
        assert db.is_stochastic
        candidates = db.candidates(tiny_dataset.left, tiny_dataset.right)
        assert len(candidates) == len(tiny_dataset.right)

    def test_deepblocker_auto_reverse(self, small_generated):
        db = DeepBlocker(k=1, epochs=2, auto_reverse=True)
        db.candidates(small_generated.left, small_generated.right)
        assert db.reverse  # |E1| < |E2|

    def test_deepblocker_phases(self, tiny_dataset):
        db = DeepBlocker(k=1, epochs=2)
        db.candidates(tiny_dataset.left, tiny_dataset.right)
        assert set(db.trace.as_dict()) == {"preprocess", "index", "query"}

    def test_pair_orientation_preserved_under_reverse(self, tiny_dataset):
        knn = FaissKNN(k=1, reverse=True)
        candidates = knn.candidates(tiny_dataset.left, tiny_dataset.right)
        for left, right in candidates:
            assert 0 <= left < len(tiny_dataset.left)
            assert 0 <= right < len(tiny_dataset.right)


def _collection(size):
    return EntityCollection(
        EntityProfile(f"e{i}", {"title": f"wireless keyboard model k{i}"})
        for i in range(size)
    )


DENSE_FILTERS = {
    "mh-lsh": lambda reverse: MinHashLSH(bands=8, rows=2),
    "hp-lsh": lambda reverse: HyperplaneLSH(tables=2, hashes=4),
    "cp-lsh": lambda reverse: CrossPolytopeLSH(tables=2),
    "faiss": lambda reverse: FaissKNN(k=3, reverse=reverse),
    "scann-bf": lambda reverse: ScannKNN(k=3, reverse=reverse),
    "scann-ah": lambda reverse: ScannKNN(
        k=3, index_type="AH", reverse=reverse
    ),
    "deepblocker": lambda reverse: DeepBlocker(
        k=3, epochs=2, reverse=reverse
    ),
}
REVERSIBLE = ("faiss", "scann-bf", "scann-ah", "deepblocker")


@pytest.mark.parametrize(
    "name, reverse",
    [(name, False) for name in DENSE_FILTERS]
    + [(name, True) for name in REVERSIBLE],
)
@pytest.mark.parametrize("sizes", [(0, 4), (4, 0), (0, 0)])
def test_empty_side_gives_empty_candidates(name, reverse, sizes):
    """No dense filter fails when one or both collections are empty."""
    flt = DENSE_FILTERS[name](reverse)
    candidates = flt.candidates(_collection(sizes[0]), _collection(sizes[1]))
    assert len(candidates) == 0
    assert flt.trace.cardinalities()["query"][1] == 0
