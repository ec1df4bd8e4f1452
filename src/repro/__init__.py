"""repro — reproduction of "Evolution of Social-Attribute Networks" (IMC 2012).

The package is organised as:

* :mod:`repro.graph` — the SAN data structure (directed social layer plus an
  undirected social-to-attribute bipartite layer);
* :mod:`repro.engine` — the dispatch engine: a kernel registry with one
  vectorized frozen/scipy kernel per operation, which freezes a mutable
  input once before calling it;
* :mod:`repro.algorithms` — graph algorithms (BFS, WCC, HyperANF, clustering
  coefficients including the paper's constant-time approximation, sampling,
  random walks);
* :mod:`repro.metrics` — every Section 3 / Section 4 measurement;
* :mod:`repro.fitting` — degree-distribution fitting (power law, discrete
  lognormal, cutoff power law) and model selection;
* :mod:`repro.models` — the paper's generative model (LAPA + RR-SAN,
  Algorithm 1), its theory, and the Zhel / MAG baselines;
* :mod:`repro.synthetic` — the synthetic Google+ ground-truth simulator;
* :mod:`repro.crawler` — the BFS snapshot crawler and privacy model;
* :mod:`repro.applications` — SybilLimit, anonymous communication, prediction;
* :mod:`repro.experiments` — per-figure experiment drivers and text reports.

Quickstart::

    from repro.synthetic import build_workload, small_config
    from repro.crawler import crawl_evolution
    from repro.metrics import san_metric_report

    workload = build_workload(small_config(), rng=7)
    series = crawl_evolution(workload.evolution, workload.snapshot_days)
    print(san_metric_report(series.last()))
"""

from __future__ import annotations

__version__ = "1.0.0"

from .graph import SAN, DiGraph  # noqa: F401  (re-exported convenience types)

__all__ = ["SAN", "DiGraph", "__version__"]
