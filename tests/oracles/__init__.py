"""Reference implementations that production code is checked against.

Each oracle is the simple (or the superseded) way to compute something
production computes faster.  None of them is importable from ``src/``.

* :mod:`.naive` — Mattson LRU stack processing, checks
  :func:`repro.reuse.reuse_distances`.
* :mod:`.fenwick` — Fenwick-tree stack-distance sweep, checks
  :func:`repro.reuse.reuse_distances`.
* :mod:`.kim` — Kim et al. grouped stack (exact at ``group_size=1``),
  checks :func:`repro.reuse.reuse_distances`.
* :mod:`.sampling` — temporal per-reference sampler, the reference
  estimator next to :func:`repro.reuse.spatial_sample_profile`.
* :mod:`.masked` — Method A's full mask sweep over exact (unfloored)
  distances of a model's period, checks the floored passes and profile
  queries of
  :meth:`repro.core.MethodA.predict`, :meth:`~repro.core.MethodA.predict_l1`
  and :meth:`~repro.core.MethodA.cold_misses`.
* :mod:`.doubled` — the repeated-trace pipeline, checks the single-period
  engine (:func:`repro.reuse.steady_state_reuse_distances`) behind
  :class:`repro.core.MethodA`, :class:`repro.core.MethodB`,
  :class:`repro.core.CacheMissModel`,
  :meth:`repro.cachesim.SpMVCacheSim.events` and whole sweeps of
  :func:`repro.experiments.common.measure_matrix`.
* :mod:`.encoding` — per-element JSON conversion, checks
  :func:`repro.analysis.report.canonical_json`.
* :mod:`.exhaustive` — every reordering candidate priced at tier 2,
  checks the confirmed winner of :func:`repro.optimize.optimize`.
* :mod:`.plru` — sequential tree-PLRU caches, checks the vectorized LRU
  simulator :func:`repro.cachesim.simulate` (equal at 2 ways, close at 16).
* :mod:`.mcs` — an emulated MCS queue lock collating per-thread streams,
  checks the order of :func:`repro.parallel.interleave`.
"""
