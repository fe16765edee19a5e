"""Seed implementations kept as test oracles.

Production (``src/repro``) carries one split engine, one tree builder,
one feature store, one inner loop, one tree-descent kernel, one batched
MI kernel, one operation guard, one plan executor and one LSTM unroll. The
implementations they replaced live here, unchanged in behaviour, so the
bit-identity tests and the throughput benchmarks can compare production
against them:

- :mod:`tests.reference.split_engine`: the per-node-argsort split engine
  and the per-node presort engine;
- :mod:`tests.reference.tree`: the recursive CART builder and the
  per-tree forest loop (on the per-node presort engine, the previous
  oracle);
- :mod:`tests.reference.sequence`: the dict-of-columns ``FeatureSpace``;
- :mod:`tests.reference.session`: the seed inner loop as a
  ``SearchSession`` subclass;
- :mod:`tests.reference.ensemble_predict`: the per-tree prediction loops
  of trees and forests;
- :mod:`tests.reference.clustering`: the per-pair MI estimator, the
  per-column discretizer and MI functions, and the double-loop Eq. 2
  merge;
- :mod:`tests.reference.operations`: the ``nan_to_num``-then-``clip``
  operation guard;
- :mod:`tests.reference.plan`: the memoized recursive plan interpreter
  and the recursive expression formatter;
- :mod:`tests.reference.recurrent`: the per-step autograd LSTM unroll,
  as an ``LSTMEncoder`` subclass.

Import them as ``tests.reference.*`` only (the checkout root is on
``sys.path`` under ``python -m pytest``); a second import name would load
a second copy of every class.
"""
