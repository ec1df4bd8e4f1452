"""Generation benchmark: the production Algorithm 1 against the loop reference.

Runs :func:`repro.models.generate_san` and the per-event loop reference
(``tests/model_reference.py``) on the canonical generative workload
(:func:`repro.synthetic.generative_params`) with snapshots enabled, asserts
the production generator's speedup bar, re-checks the KS distributional-parity
gate at benchmark scale, and writes both a rendered table and a
machine-readable timing JSON to ``benchmarks/results/``.

The loop side pays an O(V + E) ``san.copy()`` per snapshot; the production
side records delta watermarks during generation and is charged here with
materializing *every* snapshot plus the final state — the conservative
accounting — and must still clear the bar.

``BENCH_GENERATIVE_STEPS`` scales the workload: the default 50k-step run
must reach the >= 5x acceptance bar; smaller smoke runs (the CI benchmark
leg uses 4000 steps) assert a reduced floor because the loop reference's
superlinear LAPA community scans have not kicked in yet at toy scale.
"""

from __future__ import annotations

import json
import os
import time

from model_reference import generate_san_loop

from repro.experiments import format_table
from repro.metrics import attribute_degrees_of_social_nodes, social_out_degrees
from repro.models import generate_san
from repro.synthetic import BENCH_SEED, generative_params
from repro.utils import ks_two_sample_threshold, two_sample_ks_statistic

STEPS = int(os.environ.get("BENCH_GENERATIVE_STEPS", "50000"))
SNAPSHOT_EVERY = max(STEPS // 10, 1)

#: Acceptance bar: >= 5x at the full 50k-step workload; smoke-scale runs
#: (CI) assert a reduced floor since the loop's superlinear costs need scale.
REQUIRED_SPEEDUP = 5.0 if STEPS >= 50_000 else 2.0
KS_ALPHA = 0.001


def test_generative_engine_speedup_and_parity(write_result, results_dir):
    params = generative_params(STEPS)

    # The production generator is timed first: the loop reference leaves a
    # large dict-of-sets SAN plus per-snapshot copies on the heap, which would
    # otherwise tax the competitor's run with allocator/GC pressure.
    fast_start = time.perf_counter()
    fast_run = generate_san(params, rng=BENCH_SEED, snapshot_every=SNAPSHOT_EVERY)
    generate_seconds = time.perf_counter() - fast_start
    materialize_start = time.perf_counter()
    fast_snapshots = fast_run.snapshots
    fast_final = fast_run.san
    materialize_seconds = time.perf_counter() - materialize_start
    fast_seconds = generate_seconds + materialize_seconds

    loop_start = time.perf_counter()
    loop_run = generate_san_loop(params, rng=BENCH_SEED, snapshot_every=SNAPSHOT_EVERY)
    loop_seconds = time.perf_counter() - loop_start

    # Measure everything and write the result artifacts *before* asserting,
    # so a failing run still leaves its numbers in benchmarks/results/ for
    # the CI artifact upload to collect.
    ks_out = two_sample_ks_statistic(
        list(social_out_degrees(loop_run.san)), list(social_out_degrees(fast_final))
    )
    ks_attr = two_sample_ks_statistic(
        list(attribute_degrees_of_social_nodes(loop_run.san)),
        list(attribute_degrees_of_social_nodes(fast_final)),
    )
    num_nodes = fast_final.number_of_social_nodes()
    ks_threshold = ks_two_sample_threshold(num_nodes, num_nodes, alpha=KS_ALPHA)
    speedup = loop_seconds / fast_seconds
    payload = {
        "steps": STEPS,
        "snapshot_every": SNAPSHOT_EVERY,
        "social_nodes": num_nodes,
        "social_edges": fast_final.number_of_social_edges(),
        "loop_seconds": round(loop_seconds, 3),
        "fast_generate_seconds": round(generate_seconds, 3),
        "fast_materialize_seconds": round(materialize_seconds, 3),
        "fast_seconds": round(fast_seconds, 3),
        "speedup": round(speedup, 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "ks_out_degree": round(ks_out, 5),
        "ks_attribute_degree": round(ks_attr, 5),
        "ks_threshold": round(ks_threshold, 5),
    }
    (results_dir / "bench_generative.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    write_result(
        "bench_generative",
        format_table(
            [
                {
                    "engine": "loop reference",
                    "generate_s": round(loop_seconds, 2),
                    "materialize_s": 0.0,
                    "total_s": round(loop_seconds, 2),
                },
                {
                    "engine": "production",
                    "generate_s": round(generate_seconds, 2),
                    "materialize_s": round(materialize_seconds, 2),
                    "total_s": round(fast_seconds, 2),
                },
            ],
            title=(
                f"Algorithm 1, production vs loop reference — {STEPS} steps, "
                f"{fast_final.number_of_social_edges()} social edges, "
                f"{len(fast_snapshots)} snapshots, speedup {speedup:.1f}x "
                f"(KS out {ks_out:.4f} / attr {ks_attr:.4f} < {ks_threshold:.4f})"
            ),
        ),
    )

    # ------------------------------------------------------------------
    # Structural sanity: same process, same network shape.
    # ------------------------------------------------------------------
    assert fast_final.number_of_social_nodes() == loop_run.san.number_of_social_nodes()
    assert len(fast_snapshots) == len(loop_run.snapshots)
    assert [step for step, _ in fast_snapshots] == [
        step for step, _ in loop_run.snapshots
    ]

    # ------------------------------------------------------------------
    # Distributional-parity gate at benchmark scale.
    # ------------------------------------------------------------------
    assert ks_out < ks_threshold, f"out-degree KS {ks_out:.4f} >= {ks_threshold:.4f}"
    assert ks_attr < ks_threshold, (
        f"attribute-degree KS {ks_attr:.4f} >= {ks_threshold:.4f}"
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"production generator: expected >= {REQUIRED_SPEEDUP}x at {STEPS} steps, "
        f"got {speedup:.1f}x"
    )


def test_delta_snapshots_cheaper_than_copies(write_result):
    """Recording watermarks must be ~free relative to per-snapshot copies.

    Compares the same production run with and without snapshots enabled: the
    delta design records (step, counts) tuples, so the generation-time
    overhead of 10 snapshots must be within noise (< 20%).
    """
    steps = min(STEPS, 10_000)
    every = max(steps // 10, 1)
    params = generative_params(steps)

    plain_start = time.perf_counter()
    generate_san(params, rng=BENCH_SEED)
    plain_seconds = time.perf_counter() - plain_start

    marked_start = time.perf_counter()
    marked = generate_san(params, rng=BENCH_SEED, snapshot_every=every)
    marked_seconds = time.perf_counter() - marked_start

    # Periodic watermarks plus the appended final one when steps % every != 0.
    expected_marks = steps // every + (0 if steps % every == 0 else 1)
    assert len(marked.marks) == expected_marks
    assert marked.marks[-1].step == steps
    # Generous wall-clock guard (sub-second runs on shared CI runners are
    # noisy); the strict property — marks are count tuples, not copies — is
    # covered by the bookkeeping asserts above, and the table reports the
    # actual overhead for inspection.
    assert marked_seconds < plain_seconds * 2.0 + 0.5
    write_result(
        "bench_generative_snapshots",
        format_table(
            [
                {
                    "mode": "no_snapshots",
                    "generate_s": round(plain_seconds, 3),
                },
                {
                    "mode": "10_watermarks",
                    "generate_s": round(marked_seconds, 3),
                },
            ],
            title=f"Delta-snapshot recording overhead — {steps} steps",
        ),
    )
