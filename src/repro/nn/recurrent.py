"""Recurrent sequence encoders: multi-layer LSTM and vanilla RNN.

Both the Performance Predictor and the Novelty Estimator encode a
transformation-token sequence with a 2-layer LSTM (paper §V: embedding 32).
Batches are right-padded; a per-timestep mask freezes the hidden state after
a sequence's last real token, so the returned encoding is exactly the state
at each sequence's own end.

The LSTM has one unroll, :meth:`LSTMEncoder._unroll_numpy`: plain numpy
over every step and layer, in one of two product modes.

- **Flat** products (``x @ w``) serve training and every graph forward.
  :meth:`LSTMEncoder._unroll` wraps the whole stack, from the embedded
  input to the last layer's final state, as *one* autograd node whose
  backward is a hand-written BPTT. It adds into each gradient buffer in
  the order the per-step autograd graph it replaced did (kept as the
  test oracle in ``tests/reference/recurrent.py``), so gradients, Adam
  updates and the pinned training goldens are byte-identical to it. When
  no input needs a gradient (the novelty target, any ``no_grad`` forward)
  the result is a plain ``Tensor`` with no tape. A padded multi-sequence
  batch is *not* bit-identical to encoding each sequence alone: a flat
  GEMM's blocked summation order depends on the batch size (ULP drift).
- **Row-wise** products (:meth:`_RecurrentBase.encode_batch`) dispatch
  every matrix product as a stack of per-row ``(1, D) @ (D, K)`` products
  and keep frozen states through ``np.where``, which makes a ragged batch
  bit-identical to the per-sequence loop. Estimation paths (the
  performance predictor and novelty estimator) score through this.

The Fig 8 :class:`RNNEncoder` trains through the autograd graph and has a
row-wise numpy unroll of its own for ``encode_batch``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import tensor as _tensor
from repro.nn.layers import Embedding
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["LSTMEncoder", "RNNEncoder", "pad_token_batch"]


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``(B, D) @ (D, K)`` as a stack of per-row ``(1, D) @ (D, K)`` products.

    A flat 2-D ``x @ w`` lets BLAS pick a blocked kernel whose summation
    order depends on B, so the batched result drifts from the per-row
    products in the last ULP. The stacked 3-D form runs the same
    row-vector kernel as ``x[i:i+1] @ w`` for every row, which keeps
    batched encodes bit-identical to the per-sequence loop.
    """
    return np.matmul(x[:, None, :], w)[:, 0, :]


def _sigmoid(clipped: np.ndarray) -> np.ndarray:
    # Tensor.sigmoid after its clip to [-60, 60]: clipping is exact, so
    # clipping all four gates at once gives each slice the same values,
    # and exp still sees a fresh contiguous array per gate, as it does there.
    return 1.0 / (1.0 + np.exp(-clipped))


def pad_token_batch(sequences: list[np.ndarray], pad_value: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad integer token sequences into (B, T) tokens + (B, T) float mask."""
    if not sequences:
        raise ValueError("Empty batch")
    lengths = [len(s) for s in sequences]
    if min(lengths) == 0:
        raise ValueError("Sequences must be non-empty")
    T = max(lengths)
    tokens = np.full((len(sequences), T), pad_value, dtype=np.int64)
    mask = np.zeros((len(sequences), T), dtype=np.float64)
    for i, seq in enumerate(sequences):
        tokens[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1.0
    return tokens, mask


class _RecurrentBase(Module):
    """Shared plumbing: embedding, per-layer weights, masked unroll."""

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int = 32,
        hidden_dim: int = 32,
        num_layers: int = 2,
        gate_multiple: int = 1,
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.embedding = Embedding(vocab_size, embed_dim, rng=rng)

        def glorot(rows: int, cols: int) -> Parameter:
            bound = np.sqrt(6.0 / (rows + cols))
            return Parameter(rng.uniform(-bound, bound, size=(rows, cols)))

        g = gate_multiple
        self.w_x = [glorot(embed_dim if l == 0 else hidden_dim, g * hidden_dim) for l in range(num_layers)]
        self.w_h = [glorot(hidden_dim, g * hidden_dim) for _ in range(num_layers)]
        self.b = [Parameter(np.zeros(g * hidden_dim)) for _ in range(num_layers)]

    def forward(self, tokens: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Encode (B, T) token indices into (B, hidden_dim) final states."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens.reshape(1, -1)
        B, T = tokens.shape
        if mask is None:
            mask = np.ones((B, T), dtype=np.float64)
        embedded = self.embedding(tokens)  # (B, T, E)
        return self._unroll(embedded, mask, B, T)

    def _unroll(self, embedded: Tensor, mask: np.ndarray, B: int, T: int) -> Tensor:
        raise NotImplementedError

    def encode_batch(self, sequences: list[np.ndarray]) -> np.ndarray:
        """Encode ragged token sequences in one masked pass.

        Returns a raw ``(B, hidden_dim)`` float array with no autograd
        tape — inference only. Bit-identical to stacking
        ``forward(seq).data`` per sequence: products run row by row,
        alive timesteps replay the mask-1 blend arithmetic verbatim, and
        frozen timesteps keep the old state through ``np.where`` (the
        per-sequence loop never computes them at all).
        """
        tokens, mask = pad_token_batch(sequences)
        embedded = self.embedding.weight.data[tokens]  # (B, T, E)
        return self._unroll_numpy(embedded, mask)

    def _unroll_numpy(self, embedded: np.ndarray, mask: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LSTMEncoder(_RecurrentBase):
    """Multi-layer LSTM; gates packed as [input, forget, cell, output]."""

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int = 32,
        hidden_dim: int = 32,
        num_layers: int = 2,
        seed: int | None = 0,
    ) -> None:
        super().__init__(vocab_size, embed_dim, hidden_dim, num_layers, gate_multiple=4, seed=seed)
        # Forget-gate bias of 1.0 — the standard trick for gradient flow.
        for b in self.b:
            b.data[hidden_dim : 2 * hidden_dim] = 1.0

    def _unroll(self, embedded: Tensor, mask: np.ndarray, B: int, T: int) -> Tensor:
        """The fused LSTM op: one graph node over every step and layer."""
        mask = np.asarray(mask, dtype=np.float64)
        inputs = (embedded, *self.w_x, *self.w_h, *self.b)
        # Read at call time: a from-import would bind the flag's old value.
        if not (_tensor._GRAD_ENABLED and any(p.requires_grad for p in inputs)):
            return Tensor(self._unroll_numpy(embedded.data, mask, exact=False))
        tape: list[tuple[np.ndarray, ...]] = []
        out = self._unroll_numpy(embedded.data, mask, exact=False, tape=tape)
        return Tensor._result(out, inputs, lambda grad: self._backprop(grad, embedded, mask, tape))

    def _unroll_numpy(
        self,
        embedded: np.ndarray,
        mask: np.ndarray,
        exact: bool = True,
        tape: list | None = None,
    ) -> np.ndarray:
        """The one LSTM unroll; row-wise and frozen when ``exact``, else flat.

        With ``tape``, each step and layer appends what :meth:`_backprop`
        reads back: the operands of its products and its activations.
        """
        H = self.hidden_dim
        B, T, _ = embedded.shape
        product = _rowwise_matmul if exact else np.matmul
        weights = [(w_x.data, w_h.data, b.data) for w_x, w_h, b in zip(self.w_x, self.w_h, self.b)]
        zeros = np.zeros((B, H))
        h = [zeros] * self.num_layers
        c = [zeros] * self.num_layers
        for t in range(T):
            x = embedded[:, t, :]
            m = mask[:, t : t + 1]
            keep = 1.0 - m
            alive = m > 0.0 if exact else None
            for l, (w_x, w_h, b) in enumerate(weights):
                z = (product(x, w_x) + product(h[l], w_h)) + b
                clipped = z.clip(-60.0, 60.0)
                i_gate = _sigmoid(clipped[:, 0 * H : 1 * H])
                f_gate = _sigmoid(clipped[:, 1 * H : 2 * H])
                g_gate = np.tanh(z[:, 2 * H : 3 * H])
                o_gate = _sigmoid(clipped[:, 3 * H : 4 * H])
                c_new = f_gate * c[l] + i_gate * g_gate
                c_tanh = np.tanh(c_new)
                # Frozen past the sequence end: padded steps keep old state.
                c_next = m * c_new + keep * c[l]
                h_next = m * (o_gate * c_tanh) + keep * h[l]
                if exact:
                    c_next = np.where(alive, c_next, c[l])
                    h_next = np.where(alive, h_next, h[l])
                if tape is not None:
                    tape.append((x, h[l], c[l], i_gate, f_gate, g_gate, o_gate, c_tanh))
                c[l] = c_next
                h[l] = x = h_next
        return h[-1]

    def _backprop(self, grad: np.ndarray, embedded: Tensor, mask: np.ndarray, tape: list) -> None:
        """BPTT through the flat unroll, accumulating like ``Tensor.backward``.

        The per-step autograd graph fixes every floating-point detail
        reproduced here:

        - each weight gets one ``_accumulate`` per step, in reverse time
          (``w_h`` too at ``t = 0``, from the zero initial state);
        - a lower layer's state at ``t < T-1`` sums its recurrent and
          mask-blend gradients first, then the gradient from the layer
          above; every other intermediate has at most two terms;
        - the gate slices scatter into zeros, so the packed gate gradient
          is ``0.0 +`` the four slices (-0.0 becomes +0.0), and so is each
          step's slab of the embedded input's gradient;
        - the blended cell state at ``T-1`` is not in the graph, so the
          last step's cell gradient has only its tanh term;
        - every product sees autograd's operands (the strided view of a
          step's embedded input, transposed views) and every expression
          its evaluation order, e.g. ``(g * s) * (1 - s)`` for a sigmoid.

        Layers below the lowest one with a trainable input are not in the
        graph and are skipped; frozen parameters get no gradient.
        """
        L = self.num_layers
        T = embedded.data.shape[1]
        layers = list(zip(self.w_x, self.w_h, self.b))
        first = 0 if embedded.requires_grad else next(
            l for l, params in enumerate(layers) if any(p.requires_grad for p in params)
        )
        d_embedded = np.zeros(embedded.data.shape) if embedded.requires_grad else None
        d_h_next: list[np.ndarray | None] = [None] * L  # from step t+1, into h[l] at t
        d_c_next: list[np.ndarray | None] = [None] * L  # from step t+1, into c[l] at t
        for t in range(T - 1, -1, -1):
            m = mask[:, t : t + 1]
            keep = 1.0 - m
            d_above = grad
            for l in range(L - 1, first - 1, -1):
                x, h_prev, c_prev, i_gate, f_gate, g_gate, o_gate, c_tanh = tape[t * L + l]
                w_x, w_h, b = layers[l]
                if t == T - 1:
                    d_h = d_above
                elif l == L - 1:
                    d_h = d_h_next[l]
                else:
                    d_h = d_h_next[l] + d_above
                d_h_new = d_h * m
                d_c = d_h_new * o_gate * (1.0 - c_tanh**2)
                if d_c_next[l] is not None:
                    d_c = d_c + d_c_next[l] * m
                dz = np.concatenate(
                    (
                        d_c * g_gate * i_gate * (1.0 - i_gate),
                        d_c * c_prev * f_gate * (1.0 - f_gate),
                        d_c * i_gate * (1.0 - g_gate**2),
                        d_h_new * c_tanh * o_gate * (1.0 - o_gate),
                    ),
                    axis=1,
                )
                dz += 0.0
                if b.requires_grad:
                    b._accumulate(dz)
                if w_x.requires_grad:
                    w_x._accumulate(x.T @ dz)
                if w_h.requires_grad:
                    w_h._accumulate(h_prev.T @ dz)
                if l > first:
                    d_above = dz @ w_x.data.T
                elif d_embedded is not None:
                    d_embedded[:, t, :] += dz @ w_x.data.T
                if t > 0:
                    d_h_next[l] = dz @ w_h.data.T + d_h * keep
                    d_c_prev = d_c * f_gate
                    if d_c_next[l] is not None:
                        d_c_prev = d_c_prev + d_c_next[l] * keep
                    d_c_next[l] = d_c_prev
        if d_embedded is not None:
            embedded._accumulate(d_embedded)


class RNNEncoder(_RecurrentBase):
    """Multi-layer Elman RNN with tanh recurrence (Fig 8 ablation)."""

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int = 32,
        hidden_dim: int = 32,
        num_layers: int = 2,
        seed: int | None = 0,
    ) -> None:
        super().__init__(vocab_size, embed_dim, hidden_dim, num_layers, gate_multiple=1, seed=seed)

    def _unroll(self, embedded: Tensor, mask: np.ndarray, B: int, T: int) -> Tensor:
        h = [Tensor(np.zeros((B, self.hidden_dim))) for _ in range(self.num_layers)]
        for t in range(T):
            x = embedded[:, t, :]
            m = Tensor(mask[:, t : t + 1])
            for l in range(self.num_layers):
                h_new = (x @ self.w_x[l] + h[l] @ self.w_h[l] + self.b[l]).tanh()
                h[l] = m * h_new + (1.0 - m) * h[l]
                x = h[l]
        return h[-1]

    def _unroll_numpy(self, embedded: np.ndarray, mask: np.ndarray) -> np.ndarray:
        B, T, _ = embedded.shape
        h = [np.zeros((B, self.hidden_dim)) for _ in range(self.num_layers)]
        for t in range(T):
            x = embedded[:, t, :]
            m = mask[:, t : t + 1]
            alive = m > 0.0
            for l in range(self.num_layers):
                h_new = np.tanh(
                    (
                        _rowwise_matmul(x, self.w_x[l].data)
                        + _rowwise_matmul(h[l], self.w_h[l].data)
                    )
                    + self.b[l].data
                )
                h[l] = np.where(alive, m * h_new + (1.0 - m) * h[l], h[l])
                x = h[l]
        return h[-1]
