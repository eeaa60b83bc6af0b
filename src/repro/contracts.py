"""Runtime contract sanitizer, enabled by ``REPRO_CHECK=1``.

The static-analysis pass (:mod:`repro.staticcheck`) catches contract
violations that are visible in source; this module catches the ones
that are only visible in *data*: a NaN smuggled into a capacity plane,
a float32 array silently widened, a non-contiguous view handed to a
CSR solver, a writable buffer escaping :class:`PathMatrix`.  With
``REPRO_CHECK=1`` (declared in :mod:`repro.env`) the checks run at
:class:`~repro.netsim.batchroute.PathMatrix` /
:class:`~repro.netsim.stacked.StackedPathMatrix` construction and at
fairness/fluid solver entry; CI runs one differential leg with the
contracts hot and asserts results stay bit-identical to the cold run.

All checks are **read-only**: they may raise :class:`ContractError`
but never modify, copy, or reorder data, which is what makes the
bit-identity guarantee trivial.  The disabled path costs one
``repro.env.check_enabled()`` flag read per instrumented entry.
"""

from __future__ import annotations

import numpy as np

from . import env

__all__ = [
    "ContractError",
    "enabled",
    "check_array",
    "check_path_matrix",
    "check_stacked_matrix",
    "check_solver_inputs",
]


class ContractError(AssertionError):
    """A runtime data contract was violated (``REPRO_CHECK=1``)."""


def enabled() -> bool:
    """Whether the sanitizer is on (``REPRO_CHECK``, read per call)."""
    return env.check_enabled()


def check_array(
    name: str,
    arr: np.ndarray,
    *,
    dtype: type | None = None,
    ndim: int | None = None,
    contiguous: bool = True,
    finite: bool = False,
    nonnegative: bool = False,
    readonly: bool = False,
) -> None:
    """Assert one array's shape/dtype/contiguity/value contract.

    *finite* rejects NaN and ±inf; *nonnegative* rejects values < 0
    (NaN also fails it); *readonly* asserts the writeable flag is off
    — the immutability the shared-path-buffer design depends on.
    """
    if not isinstance(arr, np.ndarray):
        raise ContractError(
            f"{name}: expected numpy.ndarray, got {type(arr).__name__}"
        )
    if dtype is not None and arr.dtype != np.dtype(dtype):
        raise ContractError(
            f"{name}: expected dtype {np.dtype(dtype)}, got {arr.dtype}"
        )
    if ndim is not None and arr.ndim != ndim:
        raise ContractError(
            f"{name}: expected {ndim}-D, got {arr.ndim}-D shape "
            f"{arr.shape}"
        )
    if contiguous and not arr.flags.c_contiguous:
        raise ContractError(f"{name}: array is not C-contiguous")
    if readonly and arr.flags.writeable:
        raise ContractError(
            f"{name}: buffer is writable; shared CSR planes must be "
            f"read-only"
        )
    if finite and arr.size and not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr).ravel())[0])
        raise ContractError(
            f"{name}: non-finite value {arr.ravel()[bad]!r} at flat "
            f"index {bad}"
        )
    if nonnegative and arr.size and not bool((arr >= 0).all()):
        ok = arr >= 0
        bad = int(np.flatnonzero(~ok.ravel())[0])
        raise ContractError(
            f"{name}: negative value {arr.ravel()[bad]!r} at flat "
            f"index {bad}"
        )


def check_path_matrix(pm) -> None:
    """Construction contract of a :class:`PathMatrix` (``REPRO_CHECK``)."""
    check_array("PathMatrix.link_ids", pm.link_ids,
                dtype=np.int64, ndim=1, readonly=True)
    check_array("PathMatrix.offsets", pm.offsets,
                dtype=np.int64, ndim=1, readonly=True)
    if len(pm.link_ids) and pm.link_ids.min() < 0:
        raise ContractError("PathMatrix.link_ids: negative link id")


def check_stacked_matrix(spm) -> None:
    """Construction contract of a :class:`StackedPathMatrix`."""
    check_array("StackedPathMatrix.link_ids", spm.link_ids,
                dtype=np.int32, ndim=1, readonly=True)
    check_array("StackedPathMatrix.offsets", spm.offsets,
                dtype=np.int64, ndim=1, readonly=True)
    check_array("StackedPathMatrix.flow_base", spm.flow_base,
                dtype=np.int64, ndim=1, readonly=True)
    check_array("StackedPathMatrix.link_base", spm.link_base,
                dtype=np.int64, ndim=1, readonly=True)
    check_array("StackedPathMatrix.capacities", spm.capacities,
                dtype=np.float64, ndim=1, readonly=True,
                finite=True, nonnegative=True)
    check_array("StackedPathMatrix.active", spm.active,
                dtype=np.bool_, ndim=1, readonly=True)


def check_solver_inputs(
    where: str,
    capacities: np.ndarray,
    demands: np.ndarray | None = None,
    volumes: np.ndarray | None = None,
) -> None:
    """Value contract at a fairness/fluid solver entry point.

    Capacities must be finite and non-negative; demands (rate caps)
    must be non-negative and NaN-free but may be ``inf`` (an uncapped
    flow); volumes must be finite and positive-checked by the caller
    (only finiteness is asserted here).
    """
    check_array(f"{where}: capacities", capacities,
                dtype=np.float64, ndim=1, finite=True, nonnegative=True,
                contiguous=False)
    if demands is not None:
        check_array(f"{where}: demands", demands,
                    ndim=1, nonnegative=True, contiguous=False)
        if demands.size and bool(np.isnan(demands).any()):
            raise ContractError(f"{where}: demands: NaN rate cap")
    if volumes is not None:
        check_array(f"{where}: volumes", volumes,
                    ndim=1, finite=True, contiguous=False)
