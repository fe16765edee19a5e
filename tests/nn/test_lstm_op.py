"""The fused LSTM op is byte-identical to the autograd unroll it replaced.

``LSTMEncoder._unroll`` runs every step and layer in plain numpy and
backpropagates through a hand-written BPTT. Its contract is not
``np.allclose``: the encoder output, every parameter gradient, the
gradient reaching the embedded input and the Adam-updated weights must
equal, byte for byte, what the seed's per-step autograd graph
(``tests/reference/recurrent.py``) produces. The pinned training goldens
rest on that. These tests drive ragged padded batches (lengths 1–96,
batch sizes 1–16, 1–3 layers) through several clipped Adam steps on both
arms, cover the graph-free forwards (a frozen target, ``no_grad``) and
frozen inputs, and compare whole estimator fits.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property tests need the hypothesis dev dependency")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.novelty import NoveltyEstimator  # noqa: E402
from repro.core.predictor import PerformancePredictor  # noqa: E402
from repro.nn.layers import Linear  # noqa: E402
from repro.nn.losses import mse_loss  # noqa: E402
from repro.nn.optim import Adam  # noqa: E402
from repro.nn.recurrent import LSTMEncoder, pad_token_batch  # noqa: E402
from repro.nn.tensor import no_grad  # noqa: E402
from tests.reference.recurrent import ReferenceLSTMEncoder, use_reference_unroll  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

VOCAB = 13


@st.composite
def training_runs(draw):
    """An encoder shape, 2–3 ragged batches to train it on, a seed, and
    whether to scale the padding mask's ones to fractions (``forward``
    takes any float mask; fractional blends are where the order of a
    lower layer's three gradient terms shows)."""
    shape = (
        draw(st.integers(1, 3)),  # layers
        draw(st.sampled_from([4, 8, 32])),  # embed_dim
        draw(st.sampled_from([4, 8, 32])),  # hidden_dim
    )
    batches = []
    for _ in range(draw(st.integers(2, 3))):
        lengths = draw(st.lists(st.integers(1, 96), min_size=1, max_size=16))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        batches.append([rng.integers(0, VOCAB, size=n) for n in lengths])
    return shape, batches, draw(st.integers(0, 2**16)), draw(st.booleans())


def _pair(shape, seed):
    """The op arm and the reference arm, built with identical weights."""
    layers, embed_dim, hidden_dim = shape
    op = LSTMEncoder(VOCAB, embed_dim, hidden_dim, layers, seed=seed)
    reference = LSTMEncoder(VOCAB, embed_dim, hidden_dim, layers, seed=seed)
    use_reference_unroll(reference)
    return op, reference


def _train(encoder, batches, seed, frozen=(), soft=False):
    """Clipped Adam steps on a linear head; every byte each step produced."""
    for name, param in encoder.named_parameters():
        if name in frozen:
            param.requires_grad = False
    head = Linear(encoder.hidden_dim, 1, rng=np.random.default_rng(seed))
    params = list(encoder.parameters()) + list(head.parameters())
    # A small norm bound makes the clipping rescale every step.
    optimizer = Adam(params, lr=0.05, max_grad_norm=0.05)
    targets = np.random.default_rng(seed + 1)
    record = []
    for sequences in batches:
        tokens, mask = pad_token_batch(sequences)
        if soft:
            mask = mask * targets.uniform(0.25, 1.0, size=mask.shape)
        optimizer.zero_grad()
        embedded = encoder.embedding(tokens)
        encoded = encoder._unroll(embedded, mask, *tokens.shape)
        loss = mse_loss(head(encoded).reshape(-1), targets.normal(size=len(sequences)))
        loss.backward()
        record.append(("output", encoded.data.tobytes()))
        record.append(("loss", loss.data.tobytes()))
        record.append(("embedded.grad", None if embedded.grad is None else embedded.grad.tobytes()))
        for name, param in encoder.named_parameters():
            record.append((f"{name}.grad", None if param.grad is None else param.grad.tobytes()))
        optimizer.step()
        for name, param in encoder.named_parameters():
            record.append((name, param.data.tobytes()))
    return record


def _assert_same(op_record, reference_record):
    assert [name for name, _ in op_record] == [name for name, _ in reference_record]
    for (name, got), (_, want) in zip(op_record, reference_record):
        assert got == want, f"{name} differs from the autograd unroll"


class TestTrainingBitIdentity:
    @SETTINGS
    @given(run=training_runs())
    def test_gradients_and_adam_updates_match_autograd(self, run):
        shape, batches, seed, soft = run
        op, reference = _pair(shape, seed)
        _assert_same(_train(op, batches, seed, soft=soft), _train(reference, batches, seed, soft=soft))

    @pytest.mark.parametrize("lengths", [[1], [4], [3, 1], [2, 5, 1]])
    def test_exact_zero_gate_gradients_match_autograd(self, lengths):
        # All-zero weights make tanh(z) and every state exactly 0, so many
        # gate gradients are ±0.0: the signed-zero corner the BPTT's
        # accumulation rules are written for.
        rng = np.random.default_rng(len(lengths))
        batches = [[rng.integers(0, VOCAB, size=n) for n in lengths] for _ in range(2)]
        for seed in range(3):
            op, reference = _pair((2, 4, 4), seed)
            for encoder in (op, reference):
                for param in (*encoder.w_x, *encoder.w_h, *encoder.b):
                    param.data[...] = 0.0
            _assert_same(_train(op, batches, seed), _train(reference, batches, seed))

    @pytest.mark.parametrize(
        "frozen",
        [
            pytest.param(("embedding.weight",), id="embedding"),
            pytest.param(("embedding.weight", "w_x.0", "w_h.0", "b.0"), id="embedding+layer0"),
            pytest.param(("w_x.1", "w_h.1", "b.1"), id="top-layer"),
        ],
    )
    def test_frozen_inputs_get_no_gradient(self, frozen):
        rng = np.random.default_rng(7)
        batches = [
            [rng.integers(0, VOCAB, size=n) for n in lengths]
            for lengths in ([5, 1, 17, 9], [33, 2], [1])
        ]
        op, reference = _pair((2, 8, 8), seed=3)
        op_record = _train(op, batches, 3, frozen)
        _assert_same(op_record, _train(reference, batches, 3, frozen))
        grads = dict(op_record[: len(op_record) // len(batches)])
        for name in frozen:
            assert grads[f"{name}.grad"] is None
        assert (grads["embedded.grad"] is None) == ("embedding.weight" in frozen)


class TestGraphFreeForward:
    def _batch(self):
        rng = np.random.default_rng(11)
        return pad_token_batch([rng.integers(0, VOCAB, size=n) for n in (7, 1, 40, 12)])

    def test_frozen_encoder_returns_a_plain_tensor(self):
        op, reference = _pair((3, 8, 16), seed=5)
        for encoder in (op, reference):
            for param in encoder.parameters():
                param.requires_grad = False
        tokens, mask = self._batch()
        out = op(tokens, mask)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        assert out.data.tobytes() == reference(tokens, mask).data.tobytes()
        with pytest.raises(RuntimeError):
            out.backward()

    def test_no_grad_forward_records_no_graph(self):
        op, reference = _pair((2, 8, 8), seed=6)
        tokens, mask = self._batch()
        with no_grad():
            out = op(tokens, mask)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        assert out.data.tobytes() == reference(tokens, mask).data.tobytes()
        # The graph forward computes the same bytes.
        assert op(tokens, mask).data.tobytes() == out.data.tobytes()

    def test_encoder_keeps_no_new_instance_state(self):
        # Checkpoints pickle encoders by their instance dict: the op adds
        # nothing to it, so encoders pickled before the op still resume.
        op, reference = _pair((2, 4, 4), seed=0)
        assert type(reference) is ReferenceLSTMEncoder
        tokens, mask = self._batch()
        op(tokens, mask).sum().backward()
        assert set(vars(op)) == {
            "training", "vocab_size", "embed_dim", "hidden_dim", "num_layers",
            "embedding", "w_x", "w_h", "b",
        }


def _sequences(n, max_len, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=rng.integers(1, max_len + 1)) for _ in range(n)]


class TestEstimatorFits:
    def test_predictor_fit_matches_reference(self):
        sequences = _sequences(24, 40, seed=1)
        scores = np.random.default_rng(2).normal(size=len(sequences))
        arms = [PerformancePredictor(VOCAB, embed_dim=16, hidden_dim=16, seed=4) for _ in range(2)]
        use_reference_unroll(arms[1].model)
        losses = [arm.fit(sequences, scores, epochs=3, rng=np.random.default_rng(9)) for arm in arms]
        assert repr(losses[0]) == repr(losses[1])
        weights = [[p.data.tobytes() for p in arm.model.parameters()] for arm in arms]
        assert weights[0] == weights[1]
        assert arms[0].predict_batch(sequences).tobytes() == arms[1].predict_batch(sequences).tobytes()

    def test_novelty_fit_matches_reference(self):
        sequences = _sequences(24, 40, seed=3)
        arms = [NoveltyEstimator(VOCAB, embed_dim=16, hidden_dim=16, seed=8) for _ in range(2)]
        use_reference_unroll(arms[1].target, arms[1].estimator)
        losses = [arm.fit(sequences, epochs=3, rng=np.random.default_rng(10)) for arm in arms]
        assert repr(losses[0]) == repr(losses[1])
        weights = [[p.data.tobytes() for p in arm.estimator.parameters()] for arm in arms]
        assert weights[0] == weights[1]
        assert arms[0].score_batch(sequences).tobytes() == arms[1].score_batch(sequences).tobytes()
