"""Shared helpers for the kernel mappings."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.calibration import DEFAULT_CALIBRATION, Calibration
from repro.errors import MappingError


def functional_match(
    output: np.ndarray, reference: np.ndarray, rtol: float = 1e-5
) -> bool:
    """Whether a mapping's output matches the reference implementation.

    Integer outputs must match exactly; floating outputs to ``rtol``.
    """
    if output.shape != reference.shape:
        return False
    if np.issubdtype(output.dtype, np.integer) and np.issubdtype(
        reference.dtype, np.integer
    ):
        return bool(np.array_equal(output, reference))
    return bool(np.allclose(output, reference, rtol=rtol, atol=1e-6))


def transpose_match(output: np.ndarray, matrix: np.ndarray) -> bool:
    """Whether a corner-turn output is exactly ``matrix.T``.

    A transpose only moves words, so the check is bit-exact, and it
    compares against the transposed view without copying it.
    """
    return output.shape == matrix.T.shape and bool(
        np.array_equal(output, matrix.T)
    )


def resolve_calibration(calibration: Optional[Calibration]) -> Calibration:
    return calibration if calibration is not None else DEFAULT_CALIBRATION


def require(condition: bool, message: str) -> None:
    """Raise :class:`MappingError` unless ``condition`` holds."""
    if not condition:
        raise MappingError(message)
