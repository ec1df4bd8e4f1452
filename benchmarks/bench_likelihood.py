"""Likelihood benchmark: the production Figure 15 scorer against the loop reference.

Generates a 50k-step Algorithm 1 history with :func:`repro.models.generate_san`,
then scores the full Figure 15 spec grid with the production scorer and with
the per-link loop reference (``tests/model_reference.py``).  Unlike the two
generators, the two scorers share the scored-link selection stream, so the
gate here is *exact* parity — the same seed must select the identical
scored-link set, and every model's log-likelihood must agree within 1e-8 — on
top of the >= 5x speedup bar.

The production side reads the run's compact event log as int columns
(``SANModelRun.history_columns``) and is charged for its full cost, the
encoding pass included; the loop reference reads the decoded event objects
(``SANModelRun.history``).  ``BENCH_LIKELIHOOD_STEPS`` scales the workload: the default
50k-step run must reach >= 5x; smaller smoke runs (the CI benchmark leg uses
4000 steps) assert a reduced floor because the loop reference's community
scans have not grown superlinear yet at toy scale.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from contextlib import contextmanager


@contextmanager
def _gc_paused():
    """Pause collection inside timed sections.

    The decoded 50k-step history keeps ~800k event objects alive; cyclic-GC
    passes triggered by the evaluators' own allocations then cost hundreds
    of milliseconds at unpredictable points, which is pure timing noise —
    neither backend creates reference cycles.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()

from model_reference import evaluate_attachment_models_loop

from repro.experiments import format_table
from repro.models import (
    evaluate_attachment_models,
    figure15_specs,
    generate_san,
)
from repro.synthetic import BENCH_SEED, generative_params

STEPS = int(os.environ.get("BENCH_LIKELIHOOD_STEPS", "50000"))
MAX_LINKS = 2000
SUBSAMPLE_SEED = 15

#: Acceptance bar: >= 5x at the full 50k-step workload; smoke-scale runs
#: (CI) assert a reduced floor since the loop's community scans need scale.
REQUIRED_SPEEDUP = 5.0 if STEPS >= 50_000 else 2.0
#: Per-model log-likelihood parity tolerance (relative to max(1, |ll|)).
PARITY_TOLERANCE = 1e-8


def test_likelihood_engine_speedup_and_exact_parity(write_result, results_dir):
    params = generative_params(STEPS)
    run = generate_san(params, rng=BENCH_SEED, record_history=True)
    specs = figure15_specs()

    # The production scorer goes first so the loop reference's replay SAN and
    # per-link scans don't tax it with allocator pressure.  It reads the
    # run's compact log as columns; the loop reference reads event objects.
    with _gc_paused():
        fast_start = time.perf_counter()
        fast = evaluate_attachment_models(
            run.history_columns(), specs, max_links=MAX_LINKS, rng=SUBSAMPLE_SEED
        )
        fast_seconds = time.perf_counter() - fast_start

    history = run.history()
    del run  # the loop reference needs only the decoded history
    with _gc_paused():
        loop_start = time.perf_counter()
        loop = evaluate_attachment_models_loop(
            history, specs, max_links=MAX_LINKS, rng=SUBSAMPLE_SEED
        )
        loop_seconds = time.perf_counter() - loop_start

    speedup = loop_seconds / fast_seconds
    worst_error = max(
        abs(loop.log_likelihoods[name] - fast.log_likelihoods[name])
        / max(1.0, abs(loop.log_likelihoods[name]))
        for name in loop.log_likelihoods
    )

    # Write the result artifacts *before* asserting, so a failing run still
    # leaves its numbers in benchmarks/results/ for the CI artifact upload.
    payload = {
        "steps": STEPS,
        "social_link_events": history.num_social_links(),
        "num_specs": len(specs),
        "max_links": MAX_LINKS,
        "links_scored_loop": loop.num_links_scored,
        "links_scored_vectorized": fast.num_links_scored,
        "loop_seconds": round(loop_seconds, 3),
        "fast_seconds": round(fast_seconds, 3),
        "speedup": round(speedup, 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "worst_relative_ll_error": worst_error,
        "parity_tolerance": PARITY_TOLERANCE,
    }
    (results_dir / "bench_likelihood.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    write_result(
        "bench_likelihood",
        format_table(
            [
                {"engine": "loop reference", "seconds": round(loop_seconds, 2)},
                {"engine": "production", "seconds": round(fast_seconds, 2)},
            ],
            title=(
                f"Figure 15 likelihood, production vs loop reference — {STEPS} steps, "
                f"{history.num_social_links()} link events, {len(specs)} specs, "
                f"{loop.num_links_scored} links scored, speedup {speedup:.1f}x, "
                f"worst relative ll error {worst_error:.2e}"
            ),
        ),
    )

    # ------------------------------------------------------------------
    # Exact-parity gate: identical scored-link set, matching likelihoods.
    # ------------------------------------------------------------------
    assert loop.num_links_scored == fast.num_links_scored
    for name, value in loop.log_likelihoods.items():
        assert math.isfinite(value)
        assert abs(value - fast.log_likelihoods[name]) <= PARITY_TOLERANCE * max(
            1.0, abs(value)
        ), f"{name}: loop reference {value} vs production {fast.log_likelihoods[name]}"

    assert speedup >= REQUIRED_SPEEDUP, (
        f"production likelihood scorer: expected >= {REQUIRED_SPEEDUP}x at "
        f"{STEPS} steps, got {speedup:.1f}x"
    )


def test_figure15_sweep_is_reproducible(write_result):
    """Two same-seed sweeps must agree exactly (the old default drifted)."""
    from repro.models import figure15_sweep

    steps = min(STEPS, 2000)
    history = generate_san(
        generative_params(steps), rng=BENCH_SEED, record_history=True
    ).history_columns()
    first = figure15_sweep(history, max_links=500, rng=SUBSAMPLE_SEED)
    second = figure15_sweep(history, max_links=500, rng=SUBSAMPLE_SEED)
    assert first == second
    write_result(
        "bench_likelihood_determinism",
        f"figure15_sweep determinism — {steps} steps, "
        f"{first['num_links_scored']} links scored: two same-seed sweeps identical",
    )
