"""The generative models are pure functions of their seed.

Attribute and group labels are strings, and a set of strings iterates in an
order that ``PYTHONHASHSEED`` decides.  Each generator below runs in two
interpreters with different hash seeds; the canonical frozen arrays of the
two outputs must be identical, so no draw may walk an unordered label set.
The parameters switch on attribute churn so the churn draw is covered too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Prints, per generator, a SHA-256 over the canonical frozen view's labels
#: and CSR arrays.
_GENERATE_SCRIPT = """
import hashlib, json
from dataclasses import replace
from repro.experiments.artifacts import canonical_frozen
from repro.models import (
    SANModelParameters, ZhelModelParameters, generate_san, generate_zhel_san,
)
params = SANModelParameters(steps=300, attribute_churn_rate=0.5)
runs = {
    "model": lambda: generate_san(params, rng=5, record_history=False).san,
    "no_focal": lambda: generate_san(
        replace(params, use_focal_closure=False), rng=5, record_history=False
    ).san,
    "no_lapa": lambda: generate_san(
        replace(params, use_lapa=False), rng=5, record_history=False
    ).san,
    "zhel": lambda: generate_zhel_san(ZhelModelParameters(steps=300), rng=5),
}


def fingerprint(san):
    frozen = canonical_frozen(san)
    digest = hashlib.sha256()
    for labels in (frozen.social.labels(), frozen.attributes.attribute_labels()):
        digest.update(json.dumps([str(label) for label in labels]).encode())
    arrays = (*frozen.social.edge_arrays(), *frozen.attributes.social_to_attr_csr())
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


print(json.dumps({name: fingerprint(run()) for name, run in runs.items()}))
"""


@pytest.fixture(scope="module")
def fingerprints():
    """Every generator's fingerprint under hash seeds 1 and 2."""
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (source_root, env.get("PYTHONPATH")) if part
    )
    runs = []
    for hash_seed in ("1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        result = subprocess.run(
            [sys.executable, "-c", _GENERATE_SCRIPT], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        runs.append(json.loads(result.stdout))
    return runs


@pytest.mark.parametrize("generator", ["model", "no_focal", "no_lapa", "zhel"])
def test_generated_san_is_independent_of_the_hash_seed(fingerprints, generator):
    first, second = fingerprints
    assert first[generator] == second[generator]
