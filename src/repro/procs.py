"""One process policy for every worker pool in the package.

Three places fan work out across processes: multi-seed sweeps and
batches (:class:`repro.core.parallel.SearchOrchestrator`), the async
oracle (:class:`repro.core.async_oracle.AsyncOracle`) and the job fleet
(:class:`repro.jobs.supervisor.JobFleetSupervisor`). This module makes
the four decisions they share:

- **start method** — :func:`context`: ``fork`` where the platform has it
  (workers inherit the parent's arrays, nothing is copied), else
  ``spawn``. Results never depend on it: workers run the serial code path.
- **worker count** — :func:`resolve_workers`: ``-1`` means all cores,
  anything else must be ``>= 1``, and a pool never exceeds its task count.
- **pickle probe** — :func:`picklable`: what cannot cross the process
  boundary demotes the call to its serial path with a ``RuntimeWarning``.
- **data handoff** — :func:`pool`: inputs every task of a pool shares go
  to each worker once, through the executor's initializer (fork workers
  inherit them, spawn workers unpickle them once per worker), and only
  the per-task remainder travels with each task.
- **BLAS threads** — :func:`one_blas_thread`: a block whose BLAS calls
  must not wake OpenBLAS's helper threads runs on the calling thread
  alone. ψ⊥'s orthogonal init uses it for its QR, the one call of a
  search that OpenBLAS spreads over threads: helper threads woken next to
  busy sibling processes stalled that QR for a quarter of a second and
  then spun on the other core.

Call sites reach these through the module (``procs.context()``), so a
test that monkeypatches :func:`context` runs every pool under ``spawn``.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import pickle
import warnings
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["context", "resolve_workers", "picklable", "pool", "worker_inputs", "one_blas_thread"]


def context() -> multiprocessing.context.BaseContext:
    """The start method every pool uses: fork where available, else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


def resolve_workers(n: int, n_tasks: int | None = None, *, name: str = "n_jobs") -> int:
    """Worker count for ``n`` (``-1`` = all cores), capped at ``n_tasks``.

    Raises ``ValueError`` naming ``name`` for any other value below 1.
    """
    if n == -1:
        n = os.cpu_count() or 1
    elif n < 1:
        raise ValueError(f"{name} must be >= 1 or -1 (all cores), got {n}")
    return n if n_tasks is None else max(1, min(n, n_tasks))


def picklable(obj: Any, what: str, fallback: str = "serial execution") -> bool:
    """Whether ``obj`` crosses the process boundary.

    When it does not, warns ``"<what> is not picklable; falling back to
    <fallback>"`` and returns False, so the caller runs its serial path.
    """
    try:
        pickle.dumps(obj)
    except Exception:
        warnings.warn(
            f"{what} is not picklable; falling back to {fallback}",
            RuntimeWarning,
            stacklevel=3,
        )
        return False
    return True


# The inputs of the pool this process is a worker of, set once by the
# pool's initializer. The parent never writes it, so concurrent pools in
# one process cannot see each other's inputs.
_worker_inputs: Any = None


def _receive(inputs: Any) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def worker_inputs() -> Any:
    """Inside a worker of :func:`pool`: the inputs that pool was given."""
    return _worker_inputs


def pool(n_workers: int, inputs: Any = None) -> ProcessPoolExecutor:
    """A process pool of ``n_workers`` whose workers each receive ``inputs``
    once, at start-up; task functions read them with :func:`worker_inputs`."""
    # Imported here: serving processes import this module through
    # repro.core but never start a pool.
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=context(),
        initializer=_receive,
        initargs=(inputs,),
    )


@functools.cache
def _blas_setter() -> Any:
    """OpenBLAS's ``openblas_set_num_threads_local`` in the library a numpy
    wheel bundles (``libscipy_openblas*``), or None where there is no such
    library or symbol. Looked up on first use, not at import."""
    import ctypes
    import glob

    import numpy

    base = os.path.dirname(numpy.__file__)
    for path in sorted(
        glob.glob(os.path.join(base + ".libs", "*openblas*"))
        + glob.glob(os.path.join(base, ".dylibs", "*openblas*"))
    ):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the calling thread's BLAS calls inside the block on one thread.

    Sets OpenBLAS's thread-local thread count to 1 and restores the
    previous value on exit, so other threads' BLAS calls are unaffected.
    Where numpy's BLAS is not OpenBLAS or lacks the per-thread setting,
    the block runs unchanged.
    """
    setter = _blas_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)
