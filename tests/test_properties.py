"""Property tests of the GF(2) kernel and of the per-view linear maps.

Examples are derandomized and few, so every run checks the same cases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqec import gf2
from spinqec.codes import cyclic_hp, debierre_turban_code, toric_code
from spinqec.gf2 import (
    BinaryMatrix,
    BinaryVector,
    identity,
    mat_mul_t,
    mat_vec,
    nullspace,
    rank,
    solve,
)

PROPS = settings(derandomize=True, max_examples=60, deadline=None)

CODES = {
    "toric2": toric_code(2),
    "toric3": toric_code(3),
    "dt33": debierre_turban_code(3, 3),
}
VIEWS = [(name, sector) for name, code in CODES.items() for sector in ("X", "Z", None)]
# the sectors of this product have a non-symmetric logical/indicator pairing
CODES["hp7"] = cyclic_hp([1, 1], 7, [1, 1, 0, 1], 7)
LABEL_VIEWS = VIEWS + [("hp7", "X"), ("hp7", "Z")]


@st.composite
def matrices(draw, max_rows=8, max_cols=12, square=False):
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    row_ints = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BinaryMatrix(row_ints, cols)


def eliminated_solution(m: BinaryMatrix, s: BinaryVector):
    """Solve m x^T = s by eliminating m augmented with the single column s."""
    aug = 1 << m.cols
    rows = [r | (aug if s.bit(i) else 0) for i, r in enumerate(m.row_bits)]
    pivots = gf2.eliminate(rows, range(m.cols))
    if any(r & aug for r in rows[len(pivots):]):
        return None
    bits = sum(1 << col for row, col in zip(rows, pivots) if row & aug)
    return BinaryVector(bits, m.cols)


@PROPS
@given(matrices())
def test_rank_nullity(m):
    null = nullspace(m)
    assert rank(m) + null.rows == m.cols
    assert rank(null) == null.rows
    assert all(mat_vec(m, v).bits == 0 for v in null.row_vectors())


@PROPS
@given(matrices(), st.data())
def test_solve_reproduces_syndrome(m, data):
    x = BinaryVector(data.draw(st.integers(0, (1 << m.cols) - 1)), m.cols)
    s = mat_vec(m, x)
    y = solve(m, s)
    assert y is not None and mat_vec(m, y) == s


@PROPS
@given(matrices(), st.data())
def test_solve_none_exactly_when_inconsistent(m, data):
    s = BinaryVector(data.draw(st.integers(0, (1 << m.rows) - 1)), m.rows)
    column = BinaryMatrix([s.bit(i) for i in range(m.rows)], 1)
    consistent = rank(gf2.hstack(m, column)) == rank(m)
    y = solve(m, s)
    assert (y is not None) == consistent
    if consistent:
        assert mat_vec(m, y) == s


@PROPS
@given(matrices(max_rows=7, square=True))
def test_invert_round_trip(m):
    n = m.rows
    if rank(m) < n:
        with pytest.raises(ValueError):
            gf2.invert(m)
        return
    inv = gf2.invert(m)
    assert mat_mul_t(m, inv.transpose()) == identity(n)
    assert mat_mul_t(inv, m.transpose()) == identity(n)


@pytest.mark.parametrize("name,sector", VIEWS)
def test_syndrome_map_matches_elimination(name, sector):
    view = CODES[name].sector(sector)
    syn = view.syn_matrix
    count = 0
    for s in view.all_syndromes():
        assert view.solve_syndrome(s) == eliminated_solution(syn, s)
        count += 1
    assert count == view.n_syndromes
    for i in range(syn.rows):  # single-bit syndromes, reachable or not
        s = BinaryVector(1 << i, syn.rows)
        expected = eliminated_solution(syn, s)
        if expected is None:
            with pytest.raises(ValueError):
                view.solve_syndrome(s)
        else:
            assert view.solve_syndrome(s) == expected


@PROPS
@given(st.sampled_from(LABEL_VIEWS), st.data())
def test_class_label_inverts_class_vector(view_key, data):
    name, sector = view_key
    view = CODES[name].sector(sector)
    label = data.draw(st.integers(0, (1 << view.k) - 1))
    mask = data.draw(st.integers(0, (1 << view.theta.rows) - 1))
    stab = 0
    for i, row in enumerate(view.theta.row_bits):
        if (mask >> i) & 1:
            stab ^= row
    x = view.class_vector(label) ^ BinaryVector(stab, view.n_bonds)
    assert view.class_label(x) == label
    y = gf2.parities(view.indicators.row_bits, x.bits)
    assert view.label_from_indicators(y) == label
