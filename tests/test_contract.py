"""A shrinking search for violations of the construction's contract.

The seeded corpora draw fixed inputs; these properties let hypothesis
draw irreducible, non-permutation matrices with n <= 5 and entries <= 3
(the construction's documented preconditions, and no other filter),
block lifts ``block_lift(A, k)`` of primitive A with n <= 3 and entries
<= 2, k = 2..6 (imprimitive inputs up to 18 x 18, past the first draw's
n <= 5), cyclic block matrices of period 2 and 3 with n <= 9 and entries
<= 2, and seeded relabellings P·M·Pᵀ of the first kind.
The contract, on every such input:

- ``build_record`` returns a record, or raises an ``EndPeriodicError``
  subclass (a typed refusal, such as an oversized window, meets it);
- a returned record passes ``verify_record`` after a round trip through
  its JSON text, its finite classes have one or two nodes, and the
  window that ``derive_window`` reads off it holds at least two whole
  periods past every generator's stabilization depth;
- renaming the rectangles keeps λ to the bit, the number and signs of
  the ends, connectedness and infinite type.

A last property draws JSON-like values, near-matrices among them: as a
matrix given to ``IntMatrix``, as JSON matrix text and as a record's
``config.matrix``, each is accepted by all three or refused by all
three with ``InvalidInputError``.

The search is derandomized and keeps no example database, so every run
draws the same examples. A counterexample that it finds is pinned, in
its shrunk form, in ``tests/conftest.py``, and the property is not
weakened for it: ``INFINITE_TYPE_RELABELLING``, found by a longer
randomized run of the relabelling search, shows that
``infinite_type`` is not yet a fact of M.
"""

from __future__ import annotations

import json
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from endperiodic import (
    EndPeriodicError,
    IntMatrix,
    InvalidInputError,
    block_lift,
    build_record,
    derive_window,
    is_irreducible,
    is_primitive,
    load_record,
    parse_matrix_text,
    run_pipeline,
    verify_record,
)

from conftest import (
    INFINITE_TYPE_RELABELLING,
    finite_classes_are_small,
    relabel_invariants,
    relabelled,
)

#: fixed examples per property: the module takes about 12 s on a 2-core
#: machine with Python 3.11
SEARCH = settings(max_examples=300, derandomize=True, database=None,
                  deadline=None)


def _admissible(rows: list[list[int]]) -> bool:
    """Irreducible and not a permutation matrix (spectral radius 1)."""
    M = IntMatrix.from_rows(rows)
    permutation = all(sum(row) == 1 for row in rows) and all(
        sum(col) == 1 for col in zip(*rows)
    )
    return is_irreducible(M) and not permutation


def _square(n: int, top: int = 3):
    row = st.lists(st.integers(0, top), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


#: irreducible, non-permutation matrices with n <= 5 and entries <= 3
matrices = st.integers(1, 5).flatmap(_square).filter(_admissible)


def _lift(case: tuple) -> list[list[int]]:
    base, k = case
    return block_lift(IntMatrix.from_rows(base), k).to_lists()


def _primitive(rows: list[list[int]]) -> bool:
    return is_primitive(IntMatrix.from_rows(rows))


#: block lifts of primitive matrices with n <= 3 and entries <= 2, k = 2..6
#: (the lift of [[1]] is a permutation matrix, which ``_admissible`` drops)
lifts = st.tuples(
    st.integers(1, 3).flatmap(lambda n: _square(n, 2)).filter(_primitive),
    st.integers(2, 6),
).map(_lift).filter(_admissible)


def _cyclic(case: tuple) -> list[list[int]]:
    """The matrix whose only nonzero blocks are ``blocks[c]``, rows in
    class c and columns in class c + 1 mod d, with the classes' sizes."""
    sizes, blocks = case
    starts = [sum(sizes[:c]) for c in range(len(sizes))]
    rows = [[0] * sum(sizes) for _ in range(sum(sizes))]
    for c, block in enumerate(blocks):
        nxt = starts[(c + 1) % len(sizes)]
        for i, row in enumerate(block):
            rows[starts[c] + i][nxt:nxt + len(row)] = row
    return rows


def _blocks(sizes: list[int]):
    d = len(sizes)
    return st.tuples(st.just(sizes), st.tuples(*(
        st.lists(st.lists(st.integers(0, 2), min_size=sizes[(c + 1) % d],
                          max_size=sizes[(c + 1) % d]),
                 min_size=sizes[c], max_size=sizes[c])
        for c in range(d)
    )))


#: cyclic block matrices of period 2 and 3 (a multiple of it, if the
#: blocks' product is imprimitive too): classes of 1 to 3 vertices, each
#: arc from one class to the next, entries <= 2
cyclic_blocks = st.integers(2, 3).flatmap(
    lambda d: st.lists(st.integers(1, 3), min_size=d, max_size=d)
).flatmap(_blocks).map(_cyclic).filter(_admissible)


def _check_contract(rows: list[list[int]]) -> None:
    try:
        record, result = build_record(IntMatrix.from_rows(rows))
    except EndPeriodicError:
        return
    data = load_record(record.to_json())
    verify_record(data)
    assert finite_classes_are_small(result.census)
    _, m, cap, windows = derive_window(data)
    assert all(s <= cap - 2 * m for _, _, s in windows)


def _check_relabelling(rows: list[list[int]], order: list[int]) -> None:
    M = IntMatrix.from_rows(rows)
    try:
        expected = relabel_invariants(run_pipeline(M))
    except EndPeriodicError:
        return
    assert relabel_invariants(run_pipeline(relabelled(M, order))) == expected


# the contract search draws both kinds of input: about 250 matrices and
# 200 lifts, 6 s of the module's 12
@settings(SEARCH, max_examples=450)
@given(st.one_of(matrices, lifts))
def test_certify_or_refuse_typed(rows):
    _check_contract(rows)


# about 250 cyclic block matrices, 3 s of the module's 12
@settings(SEARCH, max_examples=250)
@given(cyclic_blocks)
def test_cyclic_blocks_certify_or_refuse_typed(rows):
    _check_contract(rows)


@SEARCH
@given(matrices.flatmap(
    lambda rows: st.tuples(st.just(rows), st.permutations(range(len(rows))))
))
def test_relabelling_keeps_the_invariants(case):
    _check_relabelling(*case)



def test_pinned_relabelling_moves_infinite_type():
    # infinite_type is "some infinite class is a Line", and the link labels
    # are choices of the construction: on this input the relabelling keeps
    # every invariant but infinite_type. When a rule that relabelling keeps
    # decides the claim, the last assertion fails and the relabelling
    # property holds here too.
    rows, order = INFINITE_TYPE_RELABELLING
    variant = relabelled(IntMatrix.from_rows(rows), order)
    for matrix in (rows, [list(row) for row in variant.entries]):
        _check_contract(matrix)
    before, after = (relabel_invariants(run_pipeline(IntMatrix.from_rows(m)))
                     for m in (rows, variant.entries))
    assert before[:3] == after[:3]
    assert (before[3], after[3]) == (True, False)


#: JSON-like values: scalars, and lists and objects of them, with square
#: matrices of small integers and their entries' edits among them
json_like = st.one_of(
    st.integers(1, 3).flatmap(lambda n: _square(n, 2)),
    st.recursive(
        st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
        | st.text(max_size=2),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=1), inner, max_size=2),
        max_leaves=12,
    ),
)


@cache
def _record_text() -> str:
    return build_record(IntMatrix([[2]]))[0].to_json()


def _accepts(check, value) -> bool:
    try:
        check(value)
    except InvalidInputError:
        return False
    return True


def _with_matrix(value) -> str:
    data = json.loads(_record_text())
    data["config"]["matrix"] = value
    return json.dumps(data)


# 300 values, about 2 s, most of it drawing them
@SEARCH
@given(json_like)
def test_a_matrix_is_accepted_or_refused_typed(value):
    accepted = _accepts(IntMatrix, value)
    if accepted:
        assert IntMatrix(value).to_lists() == value
    if isinstance(value, list):
        assert _accepts(parse_matrix_text, json.dumps(value)) == accepted
    assert _accepts(load_record, _with_matrix(value)) == accepted
