"""Seed implementations kept as test oracles.

Production (``src/repro``) carries one split engine, one feature store and
one inner loop. The implementations they replaced live here, unchanged in
behaviour, so the bit-identity tests and the throughput benchmarks can
compare production against them:

- :mod:`tests.reference.split_engine`: the per-node-argsort split engine;
- :mod:`tests.reference.sequence`: the dict-of-columns ``FeatureSpace``;
- :mod:`tests.reference.session`: the seed inner loop as a
  ``SearchSession`` subclass.

Import them as ``tests.reference.*`` only (the checkout root is on
``sys.path`` under ``python -m pytest``); a second import name would load
a second copy of every class.
"""
