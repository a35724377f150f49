"""Seeded inputs for the end-to-end benchmark.

Everything the program under test receives is made here from
``(seed, workload, repeat)``: the four-attribute relation, the labelled
probes the estimators train on, the request streams (probes, thresholds,
Zipf draws, the conjunctive mix) and the update batches.  The program never
sees the seed, only these inputs.

Each workload's ``why`` sentence is stored next to its definition and is the
text copied into ``BENCHMARK.json``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.datasets import (
    make_binary_dataset,
    make_set_dataset,
    make_string_dataset,
    make_vector_dataset,
)
from repro.datasets.synthetic import Dataset
from repro.datasets.updates import UpdateOperation, apply_operation
from repro.engine import ConjunctiveQuery, SimilarityPredicate
from repro.serving import default_record_key

DEFAULT_SEED = 11
#: Seed of everything that is *set up* — the relation, the labelled training
#: probes, the hot set — as opposed to *requested*.  It is a constant of the
#: benchmark, like N: with a relation per ``--seed`` the cluster layout, the
#: trained models and so the chosen plans differ from run to run, and the
#: spread over seeds measures the data, not the program.
#: ``--seed`` draws the requests: probes, thresholds, mix, Zipf draws, updates.
FIXTURE_SEED = 7


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: The operation timed in the latency phase ("estimate" or "query").
    latency_op: str
    #: Whether a repeat has a bulk phase through the batch API.
    bulk: bool


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "estimate_unique",
        "Estimation service alone, four endpoints, every probe unique: "
        "featurization and CardNet-A inference do the work, cache and indexes none.",
        latency_op="estimate",
        bulk=True,
    ),
    WorkloadSpec(
        "conj_repeat",
        "Unsharded engine, Zipf probes over 96 hot rows that fit the curve cache: "
        "cache hits, planning, GPH allocation, index probe and verify dominate.",
        latency_op="query",
        bulk=True,
    ),
    WorkloadSpec(
        "conj_sharded_unique",
        "Every attribute on 4 thread shards, every probe unique so the cache is "
        "bypassed: fan-out, slowest-shard wait, merge and merged curves dominate.",
        latency_op="query",
        bulk=True,
    ),
    WorkloadSpec(
        "update_mix",
        "16-row inserts and deletes beside reads through all three update paths: "
        "a read gain bought with write cost, or the reverse, shows only here.",
        latency_op="query",
        bulk=False,
    ),
)
WORKLOAD_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in WORKLOADS}


# --------------------------------------------------------------------------- #
# Sizes
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scale:
    """Every size the benchmark uses; FULL is the one BENCHMARK.json measures."""

    n_rows: int
    repeats: int  # R timed repeats, tracing off
    setups: int  # set-ups per run; setup_s is their median
    epochs: int
    vae_epochs: int
    train_probes: int  # labelled probes per attribute (x 6 thresholds)
    train_probes_edit: int  # edit labelling is ~10x dearer per probe
    min_latency_ops: int  # per repeat, however slow; R x this is the p90 sample floor
    bulk_batch: int  # queries per execute_many
    estimate_batch: int  # estimates per estimate_many
    queries_per_update: int
    update_rows: int
    hot_rows: int
    oracle_queries: int
    qerror_probes: int  # per distance


FULL = Scale(
    n_rows=5000, repeats=5, setups=3, epochs=6, vae_epochs=2,
    train_probes=100, train_probes_edit=24, min_latency_ops=40,
    bulk_batch=32, estimate_batch=64, queries_per_update=10, update_rows=16,
    hot_rows=96, oracle_queries=40, qerror_probes=40,
)
SMOKE = Scale(
    n_rows=1500, repeats=2, setups=1, epochs=2, vae_epochs=1,
    train_probes=24, train_probes_edit=8, min_latency_ops=10,
    bulk_batch=8, estimate_batch=16, queries_per_update=4, update_rows=8,
    hot_rows=24, oracle_queries=10, qerror_probes=8,
)

NUM_SHARDS = 4
NUM_TRAIN_THRESHOLDS = 6
#: Share of θmax the request thresholds are drawn from (uniform).
THETA_BAND = (0.25, 0.75)
ZIPF_EXPONENT = 1.1
#: 60 % four-predicate conjunctions, 40 % single selections; with conjunctions
#: alone ``hm`` and ``ed`` would drive < 4 % of plans.
CONJUNCTION_SHARE = 0.60
SINGLE_SHARES = {"hm": 0.15, "eu": 0.10, "jc": 0.10, "ed": 0.05}


def mix_shares(latency_op: str) -> Dict[str, float]:
    """Share of each request kind in a workload's latency phase."""
    if latency_op == "estimate":
        return {attribute.name: 1.0 / len(ATTRIBUTES) for attribute in ATTRIBUTES}
    return {"conj": CONJUNCTION_SHARE, **SINGLE_SHARES}


@dataclass(frozen=True)
class Attribute:
    name: str
    distance: str
    theta_max: float
    integer: bool


ATTRIBUTES: Tuple[Attribute, ...] = (
    Attribute("hm", "hamming", 16.0, True),
    Attribute("eu", "euclidean", 0.8, False),
    Attribute("jc", "jaccard", 0.4, False),
    Attribute("ed", "edit", 6.0, True),
)
ATTRIBUTE_BY_NAME = {a.name: a for a in ATTRIBUTES}
GPH_PART_SIZE = 16
_ALPHABET = "abcdefghijkl"
_UNIVERSE = 200
_CLUSTERS = 32
_CLUSTER_SKEW = 0.5


def stream_rng(seed: int, *labels) -> np.random.Generator:
    """One independent generator per (seed, label...) so that a stream's draws
    do not depend on how far another stream was consumed."""
    words = [int(seed) & 0xFFFFFFFF]
    for label in labels:
        words.append(
            zlib.crc32(label.encode()) if isinstance(label, str) else int(label) & 0xFFFFFFFF
        )
    return np.random.default_rng(words)


# --------------------------------------------------------------------------- #
# The relation
# --------------------------------------------------------------------------- #
def build_relation(n_rows: int, seed: int = FIXTURE_SEED) -> Dict[str, Dataset]:
    """Four row-aligned attributes, one per distance the paper covers.

    Each generator plants the same 32 cluster sizes; rows are re-ordered so
    row ``i`` belongs to the same cluster on every attribute (one entity seen
    through four representations), which is what gives a conjunction on one
    row id a non-trivial answer.
    """
    sub = lambda label: int(stream_rng(seed, "relation", label).integers(1 << 31))  # noqa: E731
    # Cluster spreads put the cardinality surge of each attribute inside the
    # request band [0.25, 0.75]·θmax; a mild size skew keeps a long tail
    # without letting one cluster decide a run's latency.
    shape = dict(num_records=n_rows, num_clusters=_CLUSTERS, cluster_skew=_CLUSTER_SKEW)
    datasets = {
        "hm": make_binary_dataset(
            dimension=64, flip_probability=0.06, theta_max=16, seed=sub("hm"), name="hm", **shape
        ),
        "eu": make_vector_dataset(
            dimension=24, cluster_std=0.07, theta_max=0.8, seed=sub("eu"), name="eu", **shape
        ),
        "jc": make_set_dataset(
            universe_size=_UNIVERSE, base_set_size=24, size_jitter=4, overlap=0.95,
            theta_max=0.4, seed=sub("jc"), name="jc", **shape
        ),
        "ed": make_string_dataset(
            base_length=12, length_jitter=2, max_mutations=4, alphabet=_ALPHABET,
            theta_max=6, seed=sub("ed"), name="ed", **shape
        ),
    }
    shuffle = stream_rng(seed, "relation", "shuffle").permutation(n_rows)
    for dataset in datasets.values():
        order = np.argsort(dataset.cluster_labels, kind="stable")[shuffle]
        if isinstance(dataset.records, np.ndarray):
            dataset.records = dataset.records[order]
        else:
            dataset.records = [dataset.records[int(i)] for i in order]
        dataset.cluster_labels = dataset.cluster_labels[order]
    return datasets


def shard_dataset(parent: Dataset, records: Sequence) -> Dataset:
    """A shard's records as a Dataset carrying the parent's type metadata."""
    return Dataset(
        name=parent.name,
        records=records,
        distance_name=parent.distance_name,
        theta_max=parent.theta_max,
        cluster_labels=np.zeros(len(records), dtype=np.int64),
        extra=dict(parent.extra),
    )


# --------------------------------------------------------------------------- #
# Probes and thresholds
# --------------------------------------------------------------------------- #
def perturb(attribute: str, record, rng: np.random.Generator, edits: int = 1):
    """A near copy of ``record``: close enough to keep its neighbourhood,
    different enough to be a new cache key.  ``edits`` scales the change; the
    request stream raises it when a record's near copies are used up (a fifth
    of the strings are verbatim copies of 32 cluster seeds)."""
    if attribute == "hm":
        flipped = np.array(record, dtype=np.uint8)
        flipped[rng.choice(flipped.size, size=1 + edits, replace=False)] ^= 1
        return flipped
    if attribute == "eu":
        moved = np.asarray(record, dtype=np.float64) + rng.normal(0.0, 0.02, len(record))
        return moved / max(float(np.linalg.norm(moved)), 1e-12)
    if attribute == "jc":
        tokens = sorted(record)
        absent = [int(t) for t in rng.integers(0, _UNIVERSE, size=8 * edits) if int(t) not in record]
        for position, token in zip(rng.permutation(len(tokens))[:edits], absent):
            tokens[int(position)] = token
        return frozenset(tokens)
    if attribute == "ed":
        chars = list(record)
        for position in rng.permutation(len(chars))[:edits]:
            choices = [c for c in _ALPHABET if c != chars[position]]
            chars[position] = choices[int(rng.integers(len(choices)))]
        return "".join(chars)
    raise KeyError(attribute)


def draw_theta(attribute: Attribute, rng: np.random.Generator) -> float:
    low, high = (share * attribute.theta_max for share in THETA_BAND)
    if attribute.integer:
        return float(rng.integers(int(np.ceil(low)), int(np.floor(high)) + 1))
    return float(rng.uniform(low, high))


def training_thresholds(attribute: Attribute) -> np.ndarray:
    grid = np.linspace(attribute.theta_max / NUM_TRAIN_THRESHOLDS, attribute.theta_max,
                       NUM_TRAIN_THRESHOLDS)
    return np.unique(np.round(grid)) if attribute.integer else grid


def training_probes(attribute: str, records: Sequence, count: int, *labels) -> List:
    """Dataset rows the estimator for ``attribute`` is labelled and trained on."""
    rng = stream_rng(FIXTURE_SEED, "train", attribute, *labels)
    picks = rng.choice(len(records), size=min(count, len(records)), replace=False)
    return [records[int(i)] for i in picks]


# --------------------------------------------------------------------------- #
# Request streams
# --------------------------------------------------------------------------- #
class Columns:
    """The current column values per attribute; the update stream's mirror.

    Plain Python lists, updated with ``datasets.updates.apply_operation`` —
    the oracle's from-scratch view of what the engine should hold.
    """

    def __init__(self, relation: Dict[str, Dataset]) -> None:
        self.values: Dict[str, List] = {
            name: list(dataset.records) for name, dataset in relation.items()
        }

    def __len__(self) -> int:
        return len(self.values["hm"])

    def apply(self, operations: Dict[str, UpdateOperation]) -> None:
        for name, operation in operations.items():
            self.values[name] = apply_operation(self.values[name], operation)


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    return min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)


class RequestStream:
    """Draws one process's requests; repeats share it so probes stay unique
    (and the hot set stays the same) across the whole run."""

    def __init__(
        self,
        seed: int,
        workload: str,
        columns: Columns,
        unique: bool,
        hot_rows: int = 0,
    ) -> None:
        self.seed = seed
        self.workload = workload
        self.columns = columns
        self.unique = unique
        self._seen: Set[Tuple[str, bytes]] = set()
        self._hot: Optional[np.ndarray] = None
        self._hot_cdf: Optional[np.ndarray] = None
        if hot_rows:
            rng = stream_rng(FIXTURE_SEED, workload, "hot")
            self._hot = rng.choice(len(columns), size=hot_rows, replace=False)
            weights = 1.0 / np.arange(1, hot_rows + 1, dtype=np.float64) ** ZIPF_EXPONENT
            self._hot_cdf = np.cumsum(weights / weights.sum())
        names = list(SINGLE_SHARES)
        self._kinds = ["conj"] + names
        self._kind_cdf = np.cumsum(
            [CONJUNCTION_SHARE] + [SINGLE_SHARES[name] for name in names]
        )

    def rng(self, repeat) -> np.random.Generator:
        return stream_rng(self.seed, self.workload, "requests", repeat)

    def _row(self, rng: np.random.Generator) -> int:
        if self._hot is not None:
            return int(self._hot[_draw(self._hot_cdf, rng)])
        return int(rng.integers(len(self.columns)))

    def _probe(self, attribute: str, row: int, rng: np.random.Generator):
        record = self.columns.values[attribute][row]
        if not self.unique:
            return record
        edits = 1
        while True:
            probe = perturb(attribute, record, rng, edits)
            key = (attribute, default_record_key(probe))  # the curve cache's own key
            if key not in self._seen:
                self._seen.add(key)
                return probe
            edits += 1

    def query(self, rng: np.random.Generator) -> ConjunctiveQuery:
        kind = self._kinds[_draw(self._kind_cdf, rng)]
        row = self._row(rng)
        attributes = ATTRIBUTES if kind == "conj" else (ATTRIBUTE_BY_NAME[kind],)
        return ConjunctiveQuery([
            SimilarityPredicate(a.name, self._probe(a.name, row, rng), draw_theta(a, rng))
            for a in attributes
        ])

    def queries(self, rng: np.random.Generator) -> Iterator[ConjunctiveQuery]:
        while True:
            yield self.query(rng)

    def estimates(self, rng: np.random.Generator) -> Iterator[Tuple[str, object, float]]:
        """(endpoint, record, θ) requests, endpoints round-robin."""
        while True:
            for attribute in ATTRIBUTES:
                row = self._row(rng)
                yield (
                    attribute.name,
                    self._probe(attribute.name, row, rng),
                    draw_theta(attribute, rng),
                )

    def update(self, rng: np.random.Generator, step: int, rows: int) -> Dict[str, UpdateOperation]:
        """One logical update — the same Δ on all four attributes — applied to
        the mirror as it is drawn.  Even steps insert near copies of ``rows``
        existing rows, odd steps delete ``rows`` positions."""
        size = len(self.columns)
        if step % 2 == 0:
            sources = rng.integers(size, size=rows)
            operations = {
                a.name: UpdateOperation(
                    "insert",
                    [perturb(a.name, self.columns.values[a.name][int(s)], rng) for s in sources],
                )
                for a in ATTRIBUTES
            }
        else:
            positions = sorted(int(p) for p in rng.choice(size, size=rows, replace=False))
            operations = {
                a.name: UpdateOperation("delete", list(positions)) for a in ATTRIBUTES
            }
        self.columns.apply(operations)
        return operations
