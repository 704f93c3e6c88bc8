"""Built-in worked-example tensors, shared by tests, demos, and the CLI.

Three small transformers with distinct structure:

* ``embed``: a (4, 2) grid of values relocated into the low-index half of a
  (2, 2, 2, 2) target; injective, carries a one-coordinate copied suffix.
* ``diag``: duplicates the leading source coordinate, placing (2, 2, 2)
  updates block-diagonally in a (2, 2, 2, 2) target; carries a
  two-coordinate copied suffix with inner table [[0, 0], [1, 1]].
* ``parity``: third output coordinate is the parity of the leading input
  coordinate, which both passes through and feeds the inner transformer;
  no copied suffix exists.

The table literals are laid out row by row so they can be audited at a
glance.
"""

from __future__ import annotations

import os

import numpy as np

from .core import as_data_tensor, as_index_tensor
from .serialize import write_document
from .transform import ProvisionTensor

EMBED_TABLE = [
    [[0, 0, 0, 0], [0, 0, 0, 1]],
    [[0, 0, 1, 0], [0, 0, 1, 1]],
    [[0, 1, 0, 0], [0, 1, 0, 1]],
    [[0, 1, 1, 0], [0, 1, 1, 1]],
]

EMBED_UPDATES = [[1, 2], [3, 4], [5, 6], [7, 8]]

EMBED_EXPECTED = [
    [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
    [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
]

DIAG_TABLE = [
    [[[0, 0, 0, 0], [0, 0, 0, 1]], [[0, 0, 1, 0], [0, 0, 1, 1]]],
    [[[1, 1, 0, 0], [1, 1, 0, 1]], [[1, 1, 1, 0], [1, 1, 1, 1]]],
]

DIAG_INNER_TABLE = [[0, 0], [1, 1]]

PARITY_TABLE = [
    [[0, 0, 0, 0], [0, 1, 0, 1]],
    [[1, 0, 1, 0], [1, 1, 1, 1]],
    [[2, 0, 0, 0], [2, 1, 0, 1]],
    [[3, 0, 1, 0], [3, 1, 1, 1]],
]


def embed_provision() -> ProvisionTensor:
    return ProvisionTensor(EMBED_TABLE, (2, 2, 2, 2))


def embed_updates() -> np.ndarray:
    return as_data_tensor(EMBED_UPDATES)


def embed_background() -> np.ndarray:
    return np.zeros((2, 2, 2, 2), dtype=np.float64)


def embed_expected() -> np.ndarray:
    return as_data_tensor(EMBED_EXPECTED)


def diag_provision() -> ProvisionTensor:
    return ProvisionTensor(DIAG_TABLE, (2, 2, 2, 2))


def diag_inner() -> ProvisionTensor:
    return ProvisionTensor(DIAG_INNER_TABLE, (2, 2))


def parity_provision() -> ProvisionTensor:
    return ProvisionTensor(PARITY_TABLE, (4, 2, 2, 2))


FIXTURE_BUILDERS = {
    "embed_provision.json": lambda: as_index_tensor(EMBED_TABLE),
    "embed_updates.json": embed_updates,
    "embed_background.json": embed_background,
    "embed_expected.json": embed_expected,
    "diag_provision.json": lambda: as_index_tensor(DIAG_TABLE),
    "diag_inner.json": lambda: as_index_tensor(DIAG_INNER_TABLE),
    "parity_provision.json": lambda: as_index_tensor(PARITY_TABLE),
}


def write_fixtures(directory) -> list[str]:
    """Write every fixture tensor as JSON under ``directory``; idempotent."""
    os.makedirs(directory, exist_ok=True)
    names = sorted(FIXTURE_BUILDERS)
    for name in names:
        write_document(os.path.join(directory, name), FIXTURE_BUILDERS[name]())
    return names
