"""The analyzer and the engine on every table of small shape pairs.

Random tests sample maps; here every table of each listed shape pair is
checked against the brute definitions in ``tests/oracles.py``, which read
one source index at a time: ``max_suffix``, ``pass_through``, the
canonical factoring recomposing bit for bit, and the collision groups and
counts.  A seeded subsample is also scattered under all five policies
against ``brute_force_scatter``.  The pairs cover extent-1 dims, ranks 1
to 3 and differing source and target ranks; rank-0 and empty sources are
separate small cases.
"""

import itertools

import numpy as np
import pytest

from scatterkit import (
    CollisionPolicy,
    ProvisionTensor,
    compose_provision,
    detect_collisions,
    scatter_x,
    slicing_impossibility,
)

from oracles import (
    brute_collisions,
    brute_max_suffix,
    brute_pass_through,
    check_against_oracles,
    literal_traversal,
)

PAIRS = [
    ((2, 2), (2, 2)),
    ((2, 1), (2, 2)),
    ((1, 2), (2, 2)),
    ((3,), (3,)),
    ((2, 2), (4,)),
    ((4,), (2, 2)),
    ((2, 1, 2), (2, 2)),
    ((2, 2), (2, 1, 2)),
    ((2, 2), (2, 3)),
]
RANK_0 = [((), (3,)), ((), (2, 2)), ((2,), ()), ((), ())]
EMPTY = [((0,), (2,)), ((2, 0), (2, 2)), ((0, 2), (3,)), ((0,), (0,))]
SCATTERED = 1 / 8  # the share of each pair's tables that is also scattered


def every_table(source_shape, target_shape):
    """Every table from ``source_shape`` into ``target_shape``, as
    ProvisionTensors in a fixed order: one for an empty source."""
    targets = literal_traversal(target_shape)
    rows = len(literal_traversal(source_shape))
    tables = [
        ProvisionTensor(np.array(choice, dtype=np.int64).reshape(
            source_shape + (len(target_shape),)), target_shape)
        for choice in itertools.product(targets, repeat=rows)
    ]
    assert len(tables) == len(targets) ** rows
    return tables


def check_analysis(provision):
    report = slicing_impossibility(provision)
    case = (provision.table.tolist(), provision.target_shape)
    assert report.max_suffix == brute_max_suffix(provision), case
    assert report.pass_through == brute_pass_through(provision), case
    composed = compose_provision(report.canonical)
    assert composed.target_shape == provision.target_shape, case
    assert (composed.table.shape, composed.table.tobytes()) == (
        provision.table.shape, provision.table.tobytes()), case
    collisions = detect_collisions(provision)
    groups, uncovered = brute_collisions(provision)
    assert collisions.groups == groups, case
    assert collisions.collision_count == len(groups), case
    assert collisions.uncovered_count == uncovered, case


def check_scatters(provision, rng):
    background = rng.integers(-4, 5, provision.target_shape).astype(float)
    updates = rng.integers(-4, 5, provision.source_shape).astype(float)
    case = (provision.table.tolist(), provision.target_shape)
    for policy in CollisionPolicy:
        check_against_oracles(
            lambda p: scatter_x(background, updates, provision, p),
            provision.table, background, updates, policy, case,
        )


@pytest.mark.parametrize("source_shape, target_shape", PAIRS)
def test_every_table_of_a_small_pair(source_shape, target_shape):
    rng = np.random.default_rng(len(source_shape) * 10 + len(target_shape))
    for provision in every_table(source_shape, target_shape):
        check_analysis(provision)
        if rng.random() < SCATTERED:
            check_scatters(provision, rng)


def test_the_pairs_hold_2635_tables():
    assert sum(len(literal_traversal(t)) ** len(literal_traversal(s))
               for s, t in PAIRS) == 2635


@pytest.mark.parametrize("source_shape, target_shape", RANK_0 + EMPTY)
def test_rank_0_and_empty_sources(source_shape, target_shape):
    rng = np.random.default_rng(0)
    for provision in every_table(source_shape, target_shape):
        check_analysis(provision)
        check_scatters(provision, rng)
