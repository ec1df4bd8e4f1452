"""R004 fixture: corrected — content-derived keys, timing outside builders."""

import hashlib
import json
import time

from repro.engine import dispatchable


@dispatchable("fixture.triangles_clean")
def triangle_count(graph):
    return 0


def scenario_cache_token(scenario):
    payload = json.dumps(scenario, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def time_a_run(fn):
    # Plain orchestration code is out of scope: timing a run is fine as long
    # as the number never feeds a cache key or a kernel result.
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started
