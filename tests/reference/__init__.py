"""Seed implementations kept as test oracles.

Production (``src/repro``) carries one split engine, one feature store,
one inner loop and one tree-descent kernel. The implementations they
replaced live here, unchanged in behaviour, so the bit-identity tests and
the throughput benchmarks can compare production against them:

- :mod:`tests.reference.split_engine`: the per-node-argsort split engine;
- :mod:`tests.reference.sequence`: the dict-of-columns ``FeatureSpace``;
- :mod:`tests.reference.session`: the seed inner loop as a
  ``SearchSession`` subclass;
- :mod:`tests.reference.ensemble_predict`: the per-tree prediction loops
  of trees and forests.

Import them as ``tests.reference.*`` only (the checkout root is on
``sys.path`` under ``python -m pytest``); a second import name would load
a second copy of every class.
"""
