"""The simulator's draws and the stored snapshots are pinned across commits.

The answer keys were calibrated on one set of draws at ``BENCH_SEED``, and a
refactor of the simulator's state or of the graph layer's sorts must leave
every draw and every stored byte where it was.  These digests were recorded
before the simulator moved from a mutable SAN to plain sets and the CSR
builders from ``np.lexsort``/``np.unique`` to packed-key sorts; any change
to them is a change of the workload itself, and moves every answer key.

* ``EVOLUTION`` pins the event-log columns (``day``, ``kind``, ``first``,
  ``second``, ``sybil``) and the attribute labels of every preset but the
  two largest.
* ``SNAPSHOT_SERIES`` pins the stored ``snapshot_series`` files (one
  columnar file per crawl day, ``days.json`` and ``coverage.json``) of the
  five tiny-scale presets and ``dense``.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ArtifactResolver, get_scenario
from repro.synthetic import simulate_google_plus

EVOLUTION = {
    "paper-default": "1c50a2bef9b56df213e02098928936c688c771f02b0a38ca0f5407ba708733ab",
    "tiny": "0942d154238bd07866d4ab860536a2b6f67c4761fbaff6d3e8a85d02202cd2d5",
    "small": "903b95cb9d25cb44142b65aa45d930c4427023112a3da7d769c02c464a9dd7ca",
    "sparse": "2cca2f32c9fe3e5ce2977086da728c8f366043289469482c710b05ad59d56748",
    "dense": "7c440698155bc80833639dcdf06fd22f259c0d28be88afe3f8675a10e08161f8",
    "high-reciprocity": "7b65a4ea7e681e5aa7163238cd8982ca579b4c11fd430d1f90c539be4e0f206f",
    "sybil-waves": "5a046d05f7075ee0f391acb2b10b7a831e6646e1c52e3d491ddd3e5b66868492",
    "churn": "fbc4d9d6b8d3e7f7009213ef4e5641f7463bc1fbe51e47fd9b9d07803010c306",
    "flash-crowd": "8fad034ed183a2539314667f8f07b027d3c5693d34b821f957aa6c4f4e1c9b49",
    "privacy-heavy": "0942d154238bd07866d4ab860536a2b6f67c4761fbaff6d3e8a85d02202cd2d5",
}

SNAPSHOT_SERIES = {
    "tiny": "378549ada226b4cf08f70fa0a893b2366e162456322a42e6fbf5217fffb12119",
    "sybil-waves": "19335365d3ff2fc40f46378178c0dde91aff2360c40461ae97dbcd3a17d64eeb",
    "churn": "6bf0e9b4820e8a563f79027a69ad05427859d57bea8b9d5a3614130f2a0672d7",
    "flash-crowd": "cea37e611873b0ad7b84c0ff6777e100a8b07d313b44bb6a41e7744f80e81e8c",
    "privacy-heavy": "81a42549971f2a11c7fbbf4d71a2106de1f896a655da4d9a3fb145d40088f1bf",
    "dense": "0c9e7590d700f438e0f58992eb2d1bcc475e44696570f4e99be4a9414cce6fe8",
}


def evolution_digest(evolution) -> str:
    """SHA-256 over the log's int columns (little-endian int64) and its labels."""
    digest = hashlib.sha256()
    for column in (
        evolution.day,
        evolution.kind,
        evolution.first,
        evolution.second,
        evolution.sybil,
    ):
        column = np.ascontiguousarray(column, dtype="<i8")
        digest.update(np.int64(column.size).tobytes())
        digest.update(column.tobytes())
    digest.update("\n".join(evolution.attribute_labels).encode("utf-8"))
    return digest.hexdigest()


def stored_files_digest(entry: Path) -> str:
    """SHA-256 over the names and bytes of a store entry's payload files."""
    digest = hashlib.sha256()
    for path in sorted(entry.iterdir()):
        if path.name == "ARTIFACT.json":
            continue  # the marker records the key and the payload's own hash
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(EVOLUTION))
def test_the_simulated_event_log_matches_its_recorded_digest(name):
    scenario = get_scenario(name)
    evolution = simulate_google_plus(scenario.config, rng=scenario.seed)
    assert evolution_digest(evolution) == EVOLUTION[name]


@pytest.mark.parametrize("name", sorted(SNAPSHOT_SERIES))
def test_the_stored_snapshot_series_matches_its_recorded_digest(name, tmp_path):
    resolver = ArtifactResolver(get_scenario(name), cache_dir=tmp_path)
    resolver.artifact("snapshot_series")
    entry = resolver.store.entry_path("snapshot_series", resolver.key("snapshot_series"))
    assert stored_files_digest(entry) == SNAPSHOT_SERIES[name]
