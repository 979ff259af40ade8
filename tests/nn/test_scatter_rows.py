"""``_scatter_rows`` (the row-gather backward) is bitwise equal to ``np.add.at``.

Both add the scattered rows in index order, so even heavily duplicated
indices must give identical bytes, not merely close values.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn.tensor import Tensor, _scatter_rows


@st.composite
def _scatter_case(draw):
    """Rows, trailing shape (1-D to 3-D tables), a duplicate-heavy index."""
    rows = draw(st.integers(0, 200))
    trailing = draw(
        st.one_of(
            st.just(()),
            st.tuples(st.integers(1, 64)),
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
        )
    )
    if rows == 0:
        count, pool = 0, 1
    else:
        count = draw(st.integers(0, 300))
        # A small pool of distinct rows makes most indices repeats.
        pool = draw(st.integers(1, rows))
    return rows, trailing, count, pool, draw(st.integers(0, 2**32 - 1))


def _arrays(case):
    rows, trailing, count, pool, seed = case
    rng = np.random.default_rng(seed)
    targets = rng.choice(max(rows, 1), size=pool, replace=False)
    idx = targets[rng.integers(0, pool, size=count)] if rows else np.zeros(0, int)
    # Heavy-tailed values so summation order shows up in the low bits.
    shape = (count, *trailing)
    grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    return (rows, *trailing), idx, grad


@settings(max_examples=200, deadline=None)
@given(_scatter_case())
def test_scatter_rows_is_bitwise_add_at(case):
    shape, idx, grad = _arrays(case)
    want = np.zeros(shape)
    np.add.at(want, idx, grad)
    got = _scatter_rows(idx, grad, shape)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(_scatter_case())
def test_gather_rows_backward_is_bitwise_add_at(case):
    shape, idx, grad = _arrays(case)
    table = Tensor(np.random.default_rng(0).standard_normal(shape), requires_grad=True)
    out = table.gather_rows(idx)
    assert out.shape == grad.shape
    out.backward(grad)
    want = np.zeros(shape)
    np.add.at(want, idx, grad)
    assert table.grad.tobytes() == want.tobytes()


def test_negative_and_nd_indices_match_add_at():
    rng = np.random.default_rng(1)
    idx = np.array([[-1, 0, -1], [2, -3, 2]])
    grad = rng.standard_normal((2, 3, 4))
    want = np.zeros((5, 4))
    np.add.at(want, idx, grad)
    assert _scatter_rows(idx, grad, (5, 4)).tobytes() == want.tobytes()


def test_empty_index_gives_zeros():
    got = _scatter_rows(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), (4, 3))
    assert got.shape == (4, 3) and not got.any()
