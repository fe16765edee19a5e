"""Weight initializers.

The Novelty Estimator's frozen target network ψ⊥ is *orthogonally*
initialized with a large gain (the paper uses 16.0, following the
randomized-prior-functions recipe) so that unvisited sequences produce large,
structured prediction errors.

The orthogonal init's QR runs on the calling thread alone
(:func:`repro.procs.one_blas_thread`): at ψ⊥'s (530, 32) shape OpenBLAS
would wake its helper threads, which stalled the call next to busy
processes and then spun. Its bytes are the same on one thread or two.
"""

from __future__ import annotations

import numpy as np

from repro import procs
from repro.nn.tensor import Tensor

__all__ = ["orthogonal_", "xavier_uniform_", "normal_", "zeros_"]


def orthogonal_(tensor: Tensor, gain: float = 1.0, rng: np.random.Generator | None = None) -> Tensor:
    """Fill a 2-D tensor with a (semi-)orthogonal matrix scaled by ``gain``."""
    if tensor.data.ndim != 2:
        raise ValueError("orthogonal_ requires a 2-D tensor")
    rng = rng or np.random.default_rng()
    rows, cols = tensor.data.shape
    flat = rng.normal(size=(max(rows, cols), min(rows, cols)))
    with procs.one_blas_thread():
        q, r = np.linalg.qr(flat)
    # Sign correction makes the distribution uniform over orthogonal matrices.
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    tensor.data = gain * q[:rows, :cols]
    return tensor


def xavier_uniform_(tensor: Tensor, gain: float = 1.0, rng: np.random.Generator | None = None) -> Tensor:
    """Glorot/Xavier uniform initialization for 2-D weights."""
    if tensor.data.ndim != 2:
        raise ValueError("xavier_uniform_ requires a 2-D tensor")
    rng = rng or np.random.default_rng()
    fan_in, fan_out = tensor.data.shape
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    tensor.data = rng.uniform(-bound, bound, size=tensor.data.shape)
    return tensor


def normal_(tensor: Tensor, std: float = 0.02, rng: np.random.Generator | None = None) -> Tensor:
    rng = rng or np.random.default_rng()
    tensor.data = rng.normal(0.0, std, size=tensor.data.shape)
    return tensor


def zeros_(tensor: Tensor) -> Tensor:
    tensor.data = np.zeros_like(tensor.data)
    return tensor
