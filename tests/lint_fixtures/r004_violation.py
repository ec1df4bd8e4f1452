"""R004 fixture: wall-clock reads inside content-derived code paths."""

import time
from datetime import datetime

from repro.engine import dispatchable


@dispatchable("fixture.triangles")
def triangle_count(graph):
    started = time.perf_counter()  # expect[R004]
    del started
    return 0


@dispatchable("fixture.walk_count")
def walk_count(graph):
    return int(time.time())  # expect[R004]


def scenario_cache_token(scenario):
    stamp = datetime.now().isoformat()  # expect[R004]
    return f"{scenario}-{stamp}"
