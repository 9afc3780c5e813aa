"""A shrinking search for violations of the construction's contract.

The seeded corpora draw fixed inputs; these properties let hypothesis
draw irreducible, non-permutation matrices with n <= 5 and entries <= 3
(the construction's documented preconditions, and no other filter), and
seeded relabellings P·M·Pᵀ of them. The contract, on every such input:

- ``build_record`` returns a record, or raises an ``EndPeriodicError``
  subclass (a typed refusal, such as an oversized window, meets it);
- a returned record passes ``verify_record`` after a round trip through
  its JSON text, its finite classes have one or two nodes, and the
  window that ``derive_window`` reads off it holds at least two whole
  periods past every generator's stabilization depth;
- renaming the rectangles keeps λ to the bit, the number and signs of
  the ends, connectedness and infinite type.

The search is derandomized and keeps no example database, so every run
draws the same examples. A counterexample that it finds is pinned, in
its shrunk form, in ``tests/conftest.py``, and the property is not
weakened for it: ``INFINITE_TYPE_RELABELLING``, found by a longer
randomized run of the relabelling search, shows that
``infinite_type`` is not yet a fact of M.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from endperiodic import (
    EndPeriodicError,
    IntMatrix,
    build_record,
    derive_window,
    is_irreducible,
    load_record,
    run_pipeline,
    verify_record,
)

from conftest import (
    INFINITE_TYPE_RELABELLING,
    finite_classes_are_small,
    relabel_invariants,
    relabelled,
)

#: fixed examples per property: the two searches take about 5 s on a 2-core
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


def _square(n: int):
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


#: irreducible, non-permutation matrices with n <= 5 and entries <= 3
matrices = st.integers(1, 5).flatmap(_square).filter(_admissible)


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


@SEARCH
@given(matrices)
def test_certify_or_refuse_typed(rows):
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
