"""Link and reciprocity prediction using social and attribute features.

Section 4.2 of the paper argues that reciprocity predictors (and link
predictors generally) should incorporate node attributes: sharing an attribute
roughly doubles the probability that a one-directional link becomes mutual.
This module provides simple, interpretable predictors over SAN features so
that claim can be demonstrated end-to-end:

* feature extraction for a node pair (common social neighbours, common
  attributes, degrees, Adamic-Adar, preferential-attachment score),
* two scoring models — structure-only and structure+attributes — trained by a
  tiny logistic regression (gradient descent; no external ML dependency),
* ranking-based evaluation (AUC) for link prediction and reciprocity
  prediction tasks built from two snapshots.

All feature extraction is *batched*: :func:`pair_features_batch` takes a
list of candidate pairs and dispatches through the :mod:`repro.engine`
registry to a kernel on the frozen SAN (a mutable SAN is frozen at
dispatch).  The common-neighbor and Adamic-Adar scores of a large batch come
from memoized scipy sparse products (``A @ A`` and
``A @ diag(1/log deg) @ A`` indexed at the pair positions), and those of a
small batch from sorted CSR-row intersections, unless the products are
already built; degrees and reverse-link membership tests are plain array
lookups.  The dataset builders accept either backend and feed every
candidate pair through the batched path; :func:`pair_features` is the
per-pair definition the batch reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple, Union

import numpy as np

from ..engine import dispatchable
from ..engine.deps import scipy_sparse
from ..graph.frozen import FrozenSAN
from ..graph.san import SAN
from ..utils.rng import RngLike, ensure_rng

Node = Hashable
Pair = Tuple[Node, Node]
SANLike = Union[SAN, FrozenSAN]

#: Feature names in the order they appear in feature vectors.
STRUCTURE_FEATURES = (
    "common_social_neighbors",
    "adamic_adar",
    "preferential_attachment",
    "reverse_link_exists",
)
ATTRIBUTE_FEATURES = ("common_attributes", "common_employer_or_school")
ALL_FEATURES = STRUCTURE_FEATURES + ATTRIBUTE_FEATURES


#: Attribute types whose shared values are the strong homophily signal.
STRONG_ATTRIBUTE_TYPES = frozenset({"employer", "school"})


def pair_features(san: SANLike, source: Node, target: Node) -> Dict[str, float]:
    """Feature dictionary describing a candidate (source, target) link."""
    common_social = san.common_social_neighbors(source, target)
    adamic_adar = 0.0
    for neighbor in common_social:
        degree = len(san.social.neighbors(neighbor))
        if degree > 1:
            adamic_adar += 1.0 / math.log(degree)
    common_attrs = san.common_attributes(source, target)
    strong_common = sum(
        1
        for attribute in common_attrs
        if san.attribute_type(attribute) in STRONG_ATTRIBUTE_TYPES
    )
    return {
        "common_social_neighbors": float(len(common_social)),
        "adamic_adar": adamic_adar,
        "preferential_attachment": math.log1p(
            san.social_in_degree(target) * max(san.social_out_degree(source), 1)
        ),
        "reverse_link_exists": 1.0 if san.has_social_edge(target, source) else 0.0,
        "common_attributes": float(len(common_attrs)),
        "common_employer_or_school": float(strong_common),
    }


def _pair_id_arrays(san: FrozenSAN, pairs: Sequence[Pair]):
    sources = np.fromiter(
        (san.social.index_of(source) for source, _ in pairs),
        dtype=np.int64,
        count=len(pairs),
    )
    targets = np.fromiter(
        (san.social.index_of(target) for _, target in pairs),
        dtype=np.int64,
        count=len(pairs),
    )
    return sources, targets


def _adamic_adar_weights(san: FrozenSAN) -> np.ndarray:
    """Per-node Adamic-Adar weight ``1/log(deg)`` (0 where deg <= 1), memoized."""

    def build(frozen: FrozenSAN) -> np.ndarray:
        degrees = frozen.social.undirected_degree_array().astype(np.float64)
        weights = np.zeros(degrees.size, dtype=np.float64)
        eligible = degrees > 1
        weights[eligible] = 1.0 / np.log(degrees[eligible])
        return weights

    return san.derived("adamic_adar_weights", build)


def _undirected_matrix(san: FrozenSAN):
    """Undirected social adjacency as a scipy CSR matrix, memoized."""

    def build(frozen: FrozenSAN):
        sparse = scipy_sparse()
        indptr, indices = frozen.social.undirected_csr()
        n = frozen.social.number_of_nodes()
        return sparse.csr_matrix(
            (np.ones(indices.size, dtype=np.float64), indices, indptr), shape=(n, n)
        )

    return san.derived("undirected_adjacency_matrix", build)


def _common_neighbor_matrix(san: FrozenSAN):
    """``A @ A``: common-neighbor counts for every 2-hop pair, memoized."""

    def build(frozen: FrozenSAN):
        adjacency = _undirected_matrix(frozen)
        return adjacency @ adjacency

    return san.derived("common_neighbor_matrix", build)


def _adamic_adar_matrix(san: FrozenSAN):
    """``A @ diag(w) @ A`` with ``w = 1/log(deg)``, memoized."""

    def build(frozen: FrozenSAN):
        sparse = scipy_sparse()
        adjacency = _undirected_matrix(frozen)
        weights = sparse.diags(_adamic_adar_weights(frozen))
        return (adjacency @ weights) @ adjacency

    return san.derived("adamic_adar_matrix", build)


def _pairwise_row_intersections(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-pair sorted-row intersection sizes and weight sums."""
    counts = np.zeros(sources.size, dtype=np.int64)
    sums = np.zeros(sources.size, dtype=np.float64)
    for position in range(sources.size):
        row_u = indices[indptr[sources[position]] : indptr[sources[position] + 1]]
        row_v = indices[indptr[targets[position]] : indptr[targets[position] + 1]]
        shared = np.intersect1d(row_u, row_v, assume_unique=True)
        counts[position] = shared.size
        if shared.size:
            sums[position] = float(weights[shared].sum())
    return counts, sums


@dispatchable("link_prediction.pair_features_batch")
def pair_features_batch(
    san: FrozenSAN, pairs: Sequence[Pair]
) -> List[Dict[str, float]]:
    """Feature dictionaries for a batch of candidate pairs.

    Equivalent to ``[pair_features(san, s, t) for s, t in pairs]``; every
    feature column is computed vectorized (sparse matmuls for the
    neighborhood scores, array indexing for the degree features) before
    assembling the per-pair dictionaries.
    """
    if not pairs:
        return []
    sources, targets = _pair_id_arrays(san, pairs)
    common_social, adamic = _neighborhood_scores(san, sources, targets)

    out_degrees = san.social.out_degree_array()
    in_degrees = san.social.in_degree_array()
    preferential = np.log1p(
        in_degrees[targets] * np.maximum(out_degrees[sources], 1)
    )

    out_indptr, out_indices = san.social.out_csr()
    reverse = np.zeros(len(pairs), dtype=np.float64)
    for position in range(len(pairs)):
        row = out_indices[
            out_indptr[targets[position]] : out_indptr[targets[position] + 1]
        ]
        slot = int(np.searchsorted(row, sources[position]))
        if slot < row.size and int(row[slot]) == sources[position]:
            reverse[position] = 1.0

    sa_indptr, sa_indices = san.attributes.social_to_attr_csr()
    type_codes = san.attributes.type_codes()
    type_names = san.attributes.type_names()
    strong_codes = np.array(
        [code for code, name in enumerate(type_names) if name in STRONG_ATTRIBUTE_TYPES],
        dtype=np.int64,
    )
    strong_mask = np.zeros(type_codes.size, dtype=bool)
    if strong_codes.size and type_codes.size:
        strong_mask[np.isin(type_codes, strong_codes)] = True
    common_attrs = np.zeros(len(pairs), dtype=np.int64)
    strong_common = np.zeros(len(pairs), dtype=np.int64)
    for position in range(len(pairs)):
        row_u = sa_indices[
            sa_indptr[sources[position]] : sa_indptr[sources[position] + 1]
        ]
        row_v = sa_indices[
            sa_indptr[targets[position]] : sa_indptr[targets[position] + 1]
        ]
        shared = np.intersect1d(row_u, row_v, assume_unique=True)
        common_attrs[position] = shared.size
        if shared.size:
            strong_common[position] = int(np.count_nonzero(strong_mask[shared]))

    return [
        {
            "common_social_neighbors": float(common_social[position]),
            "adamic_adar": float(adamic[position]),
            "preferential_attachment": float(preferential[position]),
            "reverse_link_exists": float(reverse[position]),
            "common_attributes": float(common_attrs[position]),
            "common_employer_or_school": float(strong_common[position]),
        }
        for position in range(len(pairs))
    ]


def _neighborhood_scores(
    san: FrozenSAN, sources: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(common-neighbor counts, Adamic-Adar scores) for id pairs.

    Small batches intersect the two sorted CSR rows per pair.  When both
    whole-graph sparse products are already memoized or the batch is large
    enough to amortize their construction, the scores are a single
    fancy-indexing lookup instead.
    """
    if sources.size >= san.number_of_social_nodes() or (
        san.has_derived("common_neighbor_matrix")
        and san.has_derived("adamic_adar_matrix")
    ):
        counts = np.asarray(_common_neighbor_matrix(san)[sources, targets]).ravel()
        adamic = np.asarray(_adamic_adar_matrix(san)[sources, targets]).ravel()
        return counts.astype(np.int64), adamic
    indptr, indices = san.social.undirected_csr()
    return _pairwise_row_intersections(
        indptr, indices, sources, targets, _adamic_adar_weights(san)
    )


def feature_vector(features: Dict[str, float], names: Sequence[str]) -> List[float]:
    return [features.get(name, 0.0) for name in names]


@dataclass
class LogisticPredictor:
    """Minimal logistic-regression scorer over a fixed feature list."""

    feature_names: Sequence[str] = ALL_FEATURES
    weights: List[float] = field(default_factory=list)
    bias: float = 0.0
    learning_rate: float = 0.05
    epochs: int = 200
    l2: float = 1e-3

    def fit(self, features: Sequence[Dict[str, float]], labels: Sequence[int]) -> "LogisticPredictor":
        if len(features) != len(labels):
            raise ValueError("features and labels must have the same length")
        if not features:
            raise ValueError("cannot train on an empty dataset")
        vectors = [feature_vector(f, self.feature_names) for f in features]
        # Standardise features for stable gradient descent.
        dims = len(self.feature_names)
        means = [sum(v[d] for v in vectors) / len(vectors) for d in range(dims)]
        stds = []
        for d in range(dims):
            variance = sum((v[d] - means[d]) ** 2 for v in vectors) / len(vectors)
            stds.append(math.sqrt(variance) if variance > 1e-12 else 1.0)
        self._means, self._stds = means, stds
        scaled = [
            [(v[d] - means[d]) / stds[d] for d in range(dims)] for v in vectors
        ]
        self.weights = [0.0] * dims
        self.bias = 0.0
        n = len(scaled)
        for _ in range(self.epochs):
            gradient_w = [0.0] * dims
            gradient_b = 0.0
            for vector, label in zip(scaled, labels):
                prediction = self._sigmoid(
                    sum(w * x for w, x in zip(self.weights, vector)) + self.bias
                )
                error = prediction - label
                for d in range(dims):
                    gradient_w[d] += error * vector[d]
                gradient_b += error
            for d in range(dims):
                self.weights[d] -= self.learning_rate * (
                    gradient_w[d] / n + self.l2 * self.weights[d]
                )
            self.bias -= self.learning_rate * gradient_b / n
        return self

    def score(self, features: Dict[str, float]) -> float:
        vector = feature_vector(features, self.feature_names)
        scaled = [
            (vector[d] - self._means[d]) / self._stds[d] for d in range(len(vector))
        ]
        return self._sigmoid(sum(w * x for w, x in zip(self.weights, scaled)) + self.bias)

    @staticmethod
    def _sigmoid(value: float) -> float:
        if value >= 0:
            return 1.0 / (1.0 + math.exp(-value))
        exp_value = math.exp(value)
        return exp_value / (1.0 + exp_value)


def auc_score(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via the rank-sum formulation."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels must have the same length")
    positives = [score for score, label in zip(scores, labels) if label == 1]
    negatives = [score for score, label in zip(scores, labels) if label == 0]
    if not positives or not negatives:
        return 0.5
    wins = 0.0
    for positive in positives:
        for negative in negatives:
            if positive > negative:
                wins += 1.0
            elif positive == negative:
                wins += 0.5
    return wins / (len(positives) * len(negatives))


@dataclass
class PredictionDataset:
    """Candidate pairs with features (on the earlier SAN) and labels (from the later)."""

    features: List[Dict[str, float]]
    labels: List[int]
    pairs: List[Tuple[Node, Node]]


def build_reciprocity_dataset(
    earlier: SANLike, later: SANLike, max_pairs: int = 2000, rng: RngLike = None
) -> PredictionDataset:
    """Reciprocity prediction task: will a one-directional link become mutual?

    Candidates are one-directional links in ``earlier``; the label is whether
    the reverse link exists in ``later``.
    """
    generator = ensure_rng(rng)
    candidates = [
        (source, target)
        for source, target in earlier.social_edges()
        if not earlier.social.has_edge(target, source)
    ]
    if len(candidates) > max_pairs:
        candidates = generator.sample(candidates, max_pairs)
    features = pair_features_batch(earlier, candidates)
    labels = [
        1
        if later.is_social_node(source)
        and later.is_social_node(target)
        and later.social.has_edge(target, source)
        else 0
        for source, target in candidates
    ]
    return PredictionDataset(features=features, labels=labels, pairs=candidates)


def build_link_prediction_dataset(
    earlier: SANLike, later: SANLike, max_pairs: int = 2000, rng: RngLike = None
) -> PredictionDataset:
    """Link prediction task: positives are new links in ``later``; negatives are
    random non-links sampled among two-hop pairs of ``earlier``."""
    generator = ensure_rng(rng)
    positives: List[Tuple[Node, Node]] = []
    for source, target in later.social_edges():
        if earlier.is_social_node(source) and earlier.is_social_node(target):
            if not earlier.has_social_edge(source, target):
                positives.append((source, target))
    if len(positives) > max_pairs // 2:
        positives = generator.sample(positives, max_pairs // 2)

    nodes = list(earlier.social_nodes())
    negatives: List[Tuple[Node, Node]] = []
    attempts = 0
    target_count = len(positives)
    while len(negatives) < target_count and attempts < 50 * max(target_count, 1):
        attempts += 1
        source = nodes[generator.randrange(len(nodes))]
        target = nodes[generator.randrange(len(nodes))]
        if source == target or earlier.has_social_edge(source, target):
            continue
        if later.is_social_node(source) and later.has_social_edge(source, target):
            continue
        negatives.append((source, target))

    pairs = positives + negatives
    features = pair_features_batch(earlier, pairs)
    labels = [1] * len(positives) + [0] * len(negatives)
    return PredictionDataset(features=features, labels=labels, pairs=pairs)


def compare_predictors(
    dataset: PredictionDataset, train_fraction: float = 0.6, rng: RngLike = None
) -> Dict[str, float]:
    """AUC of the structure-only vs structure+attribute predictors on a dataset."""
    generator = ensure_rng(rng)
    indices = list(range(len(dataset.labels)))
    generator.shuffle(indices)
    split = max(1, int(len(indices) * train_fraction))
    train_idx, test_idx = indices[:split], indices[split:]
    if not test_idx:
        train_idx, test_idx = indices, indices

    def subset(idx: List[int]):
        return (
            [dataset.features[i] for i in idx],
            [dataset.labels[i] for i in idx],
        )

    train_features, train_labels = subset(train_idx)
    test_features, test_labels = subset(test_idx)

    results: Dict[str, float] = {}
    for name, feature_names in (
        ("structure_only", STRUCTURE_FEATURES),
        ("structure_plus_attributes", ALL_FEATURES),
    ):
        predictor = LogisticPredictor(feature_names=feature_names)
        predictor.fit(train_features, train_labels)
        scores = [predictor.score(features) for features in test_features]
        results[name] = auc_score(scores, test_labels)
    return results
