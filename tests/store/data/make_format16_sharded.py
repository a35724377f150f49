"""Write ``format16_sharded/``: a format-16 engine snapshot with two sharded
CardNet attributes, and the merged curves it served when written.

Usage::

    PYTHONPATH=src python tests/store/data/make_format16_sharded.py tests/store/data/format16_sharded

``tests/store/test_engine_roundtrip.py`` loads the directory and checks that
the merged endpoints still serve ``curves.json`` bit for bit.  The curves
equal those of the format-8 to format-15 copies before it; the format-8 one
was written while the merged endpoint still summed per-shard passes, before
shard CardNets were stacked into one pass.  The snapshot is saved with an
empty serving ledger, so the request latencies the curves took to serve are
not written and two runs write the same bytes.
"""

import json
import sys
from pathlib import Path

import numpy as np

from repro.core import CardNetConfig, CardNetEstimator
from repro.datasets import make_binary_dataset
from repro.datasets.synthetic import Dataset
from repro.engine import SimilarityQueryEngine
from repro.featurization import build_feature_extractor
from repro.serving import ServingTelemetry
from repro.store import save_engine

NUM_SHARDS = 3
NUM_RECORDS = 8


def factory(parent, accelerated):
    def build(shard_records, shard_index):
        shard = Dataset(
            name=parent.name, records=shard_records, distance_name="hamming",
            theta_max=parent.theta_max,
            cluster_labels=np.zeros(len(shard_records), dtype=np.int64),
            extra=dict(parent.extra),
        )
        config = CardNetConfig(
            vae_latent_dimension=3, vae_hidden_sizes=(6,), distance_embedding_dimension=2,
            embedding_dimension=4, encoder_hidden_sizes=(6, 5),
        )
        return CardNetEstimator(
            build_feature_extractor(shard), config=config, accelerated=accelerated,
            seed=shard_index,
        )

    return build


def main(directory: Path) -> None:
    dataset = make_binary_dataset(
        num_records=60, dimension=12, num_clusters=3, flip_probability=0.1,
        theta_max=5, seed=3, name="HM-Format11",
    )
    engine = SimilarityQueryEngine()
    curves = {}
    for name, accelerated in (("hm_a", True), ("hm", False)):
        engine.register_sharded_attribute(
            name, dataset.records, "hamming", factory(dataset, accelerated),
            num_shards=NUM_SHARDS, theta_max=dataset.theta_max,
        )
        records = list(engine.catalog.get(name).records[:NUM_RECORDS])
        curves[name] = engine.service.estimate_curve_many(name, records).tolist()
    engine.service.invalidate()
    engine.service.telemetry = ServingTelemetry()  # no wall-clock readings
    save_engine(engine, directory)
    (directory / "curves.json").write_text(json.dumps(curves, indent=1) + "\n")
    engine.runtime.shutdown()


if __name__ == "__main__":
    main(Path(sys.argv[1]))
