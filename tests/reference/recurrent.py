"""The seed's autograd LSTM unroll, as an ``LSTMEncoder`` subclass.

Production trains through one fused graph node
(``repro.nn.recurrent.LSTMEncoder._unroll``): a plain-numpy forward and a
hand-written BPTT. :class:`ReferenceLSTMEncoder` keeps the per-step
autograd unroll it replaced, unchanged, so ``tests/nn/test_lstm_op.py``
and ``benchmarks/test_retrain_throughput.py`` can compare gradients,
Adam-updated weights and whole estimator fits byte for byte.
:func:`use_reference_unroll` switches every LSTM encoder inside the
modules it is given (a predictor's model, a novelty estimator's target
and estimator) to it in place.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.nn.recurrent import LSTMEncoder
from repro.nn.tensor import Tensor

__all__ = ["ReferenceLSTMEncoder", "use_reference_unroll"]


class ReferenceLSTMEncoder(LSTMEncoder):
    """``LSTMEncoder`` whose training forward is the autograd unroll."""

    def _unroll(self, embedded: Tensor, mask: np.ndarray, B: int, T: int) -> Tensor:
        H = self.hidden_dim
        h = [Tensor(np.zeros((B, H))) for _ in range(self.num_layers)]
        c = [Tensor(np.zeros((B, H))) for _ in range(self.num_layers)]
        for t in range(T):
            x = embedded[:, t, :]
            m = Tensor(mask[:, t : t + 1])
            for l in range(self.num_layers):
                z = x @ self.w_x[l] + h[l] @ self.w_h[l] + self.b[l]
                i_gate = z[:, 0 * H : 1 * H].sigmoid()
                f_gate = z[:, 1 * H : 2 * H].sigmoid()
                g_gate = z[:, 2 * H : 3 * H].tanh()
                o_gate = z[:, 3 * H : 4 * H].sigmoid()
                c_new = f_gate * c[l] + i_gate * g_gate
                h_new = o_gate * c_new.tanh()
                # Frozen past the sequence end: padded steps keep old state.
                c[l] = m * c_new + (1.0 - m) * c[l]
                h[l] = m * h_new + (1.0 - m) * h[l]
                x = h[l]
        return h[-1]


def use_reference_unroll(*modules: Module) -> None:
    """Switch every ``LSTMEncoder`` inside ``modules`` to the reference.

    Pass a ``PerformancePredictor``'s ``model``, or a ``NoveltyEstimator``'s
    ``target`` and ``estimator``. The encoders keep their parameters; only
    their class changes, which is safe because the fused op keeps no
    instance state of its own.
    """
    stack = list(modules)
    while stack:
        module = stack.pop()
        if isinstance(module, LSTMEncoder):
            module.__class__ = ReferenceLSTMEncoder
        stack.extend(v for v in vars(module).values() if isinstance(v, Module))
