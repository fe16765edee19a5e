"""The Performance Predictor φ(T) (§III-C, Eq. 3).

An LSTM (or RNN/Transformer, Fig 8) encoder over the transformation-token
sequence followed by a small feed-forward head predicting the downstream
score. Trained on ⟨sequence, measured score⟩ pairs with MSE, it replaces the
cross-validated downstream evaluation with a single forward pass — the
paper's answer to challenge C1 (runtime bottleneck).
"""

from __future__ import annotations

import numpy as np

from repro.nn.attention import TransformerEncoder
from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.losses import mse_loss
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.recurrent import LSTMEncoder, RNNEncoder, _rowwise_matmul, pad_token_batch
from repro.nn.tensor import Tensor

__all__ = ["SequenceRegressor", "PerformancePredictor", "make_encoder"]


def make_encoder(
    seq_model: str,
    vocab_size: int,
    embed_dim: int,
    hidden_dim: int,
    num_layers: int,
    seed: int | None,
) -> Module:
    """Encoder factory over the Fig 8 ablation arms."""
    if seq_model == "lstm":
        return LSTMEncoder(vocab_size, embed_dim, hidden_dim, num_layers, seed=seed)
    if seq_model == "rnn":
        return RNNEncoder(vocab_size, embed_dim, hidden_dim, num_layers, seed=seed)
    if seq_model == "transformer":
        return TransformerEncoder(vocab_size, embed_dim, hidden_dim, num_layers, seed=seed)
    raise ValueError(f"Unknown seq_model {seq_model!r}")


class SequenceRegressor(Module):
    """Encoder + feed-forward head mapping token sequences to scalars."""

    def __init__(
        self,
        vocab_size: int,
        seq_model: str = "lstm",
        embed_dim: int = 32,
        hidden_dim: int = 32,
        num_layers: int = 2,
        head_dims: tuple[int, ...] = (16, 1),
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        if not head_dims or head_dims[-1] != 1:
            raise ValueError("head_dims must end with output dimension 1")
        rng = np.random.default_rng(seed)
        self.encoder = make_encoder(seq_model, vocab_size, embed_dim, hidden_dim, num_layers, seed)
        layers: list[Module] = []
        in_dim = hidden_dim
        for i, out_dim in enumerate(head_dims):
            layers.append(Linear(in_dim, out_dim, rng=rng))
            if i < len(head_dims) - 1:
                layers.append(ReLU())
            in_dim = out_dim
        self.head = Sequential(*layers)

    def forward(self, tokens: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        return self.head(self.encoder(tokens, mask)).reshape(-1)

    def encode(self, tokens: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Detached sequence embedding (used for novelty distance, Fig 14)."""
        return self.encoder(tokens, mask).data

    def encode_batch_exact(self, sequences: list[np.ndarray]) -> np.ndarray:
        """Detached ``(B, hidden)`` encodings, bit-identical per row to
        ``encode(seq)`` — recurrent encoders run one masked exact pass,
        the Transformer (no exact batch kernel) falls back to the loop."""
        sequences = [np.asarray(s, dtype=np.int64) for s in sequences]
        if hasattr(self.encoder, "encode_batch"):
            return self.encoder.encode_batch(sequences)
        return np.vstack([self.encoder(s).data for s in sequences])

    def infer_batch(self, sequences: list[np.ndarray]) -> np.ndarray:
        """Batched inference scores ``(B,)``, bit-identical per row to
        ``float(forward(seq).data.ravel()[0])``.

        The head replays each Linear as stacked per-row products (see
        :func:`repro.nn.recurrent._rowwise_matmul`) so the whole batch
        matches the per-sequence forward bitwise — no autograd tape.
        """
        x = self.encode_batch_exact(sequences)
        for layer in self.head.layers:
            if isinstance(layer, Linear):
                x = _rowwise_matmul(x, layer.weight.data)
                if layer.bias is not None:
                    x = x + layer.bias.data
            elif isinstance(layer, ReLU):
                x = np.maximum(x, 0.0)
            else:  # pragma: no cover - heads are Linear/ReLU by construction
                x = layer(Tensor(x)).data
        return x.ravel()

    def activation_bytes(self, seq_len: int, batch: int = 1) -> int:
        """Analytic activation memory for one forward pass (Fig 11 stand-in
        for the paper's GPU-allocation measurements).

        A recurrent encoder stores per-timestep gate activations; with hidden
        size H and L layers that is ≈ seq_len · L · 6H floats (4 gates + cell
        + hidden). The Transformer's attention matrices add seq_len² terms —
        exactly why its footprint grows faster in Fig 8/11.
        """
        H = getattr(self.encoder, "hidden_dim", 32)
        L = getattr(self.encoder, "num_layers", 1)
        E = getattr(self.encoder, "embed_dim", H)
        floats = batch * seq_len * E  # embeddings
        if isinstance(self.encoder, TransformerEncoder):
            n_blocks = len(self.encoder.blocks)
            floats += batch * n_blocks * (seq_len * seq_len + 6 * seq_len * E)
        else:
            per_step = 6 * H if isinstance(self.encoder, LSTMEncoder) else 2 * H
            floats += batch * seq_len * L * per_step
        return int(floats * 8)  # float64


class PerformancePredictor:
    """φ: T → R̂ with online fitting on the replay memory's records."""

    def __init__(
        self,
        vocab_size: int,
        seq_model: str = "lstm",
        embed_dim: int = 32,
        hidden_dim: int = 32,
        num_layers: int = 2,
        head_dims: tuple[int, ...] = (16, 1),
        lr: float = 1e-3,
        seed: int | None = 0,
    ) -> None:
        self.model = SequenceRegressor(
            vocab_size, seq_model, embed_dim, hidden_dim, num_layers, head_dims, seed
        )
        self.optimizer = Adam(list(self.model.parameters()), lr=lr)
        self.n_updates = 0

    def predict(self, tokens: np.ndarray) -> float:
        """One forward pass — the fast replacement for downstream evaluation."""
        return float(self.model(np.asarray(tokens, dtype=np.int64)).data.ravel()[0])

    def predict_batch(self, sequences: list[np.ndarray]) -> np.ndarray:
        """φ for several candidate sequences in one masked exact pass.

        The session's trigger loop scores candidates through this entry
        point. Batching is *exact*: every row is bit-identical to the
        corresponding :meth:`predict` call, for any mix of ragged
        lengths (see :meth:`SequenceRegressor.infer_batch`): the encoder
        runs its one unroll with row-wise products. The padded
        multi-sequence forward with flat, ULP-drifty products survives
        only inside :meth:`fit`, where the LSTM trains through it as one
        fused op and its arithmetic is part of the pinned training
        goldens.
        """
        return self.model.infer_batch(sequences)

    def fit(
        self,
        sequences: list[np.ndarray],
        scores: np.ndarray,
        epochs: int = 20,
        batch_size: int = 16,
        rng: np.random.Generator | None = None,
    ) -> float:
        """MSE training on ⟨T_i, A(T_i(F))⟩ pairs (Eq. 3); returns last loss."""
        if len(sequences) != len(scores):
            raise ValueError("sequences and scores must align")
        if not sequences:
            raise ValueError("No training records")
        rng = rng or np.random.default_rng(0)
        scores = np.asarray(scores, dtype=float)
        last = 0.0
        for _ in range(epochs):
            order = rng.permutation(len(sequences))
            for start in range(0, len(order), batch_size):
                idx = order[start : start + batch_size]
                tokens, mask = pad_token_batch([sequences[i] for i in idx])
                self.optimizer.zero_grad()
                pred = self.model(tokens, mask)
                loss = mse_loss(pred, scores[idx])
                loss.backward()
                self.optimizer.step()
                last = loss.item()
                self.n_updates += 1
        return last

    def memory_footprint(self, seq_len: int) -> dict[str, int]:
        """Parameter + activation byte counts (Fig 11)."""
        params = self.model.memory_bytes()
        activations = self.model.activation_bytes(seq_len)
        return {
            "parameter_bytes": params,
            "activation_bytes": activations,
            "total_bytes": params + activations,
        }
