from fractions import Fraction

import pytest

from bs3.linalg import rank

import oracles


def test_rank_identity():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_zero_matrix():
    assert rank([[0] * 5, [0] * 5]) == 0


def test_rank_dependent_rows():
    assert rank([[1, 1, 1], [2, 2, 2]]) == 1


def test_rank_with_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]
    assert rank(m) == 2
    # second row is 3x the first, exactly
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1


def test_rank_equals_transpose_rank():
    m = [[1, 2, 3, 4], [0, 1, 1, 0], [1, 3, 4, 4]]
    mt = [list(col) for col in zip(*m)]
    assert rank(m) == rank(mt) == 2


def test_rank_invariant_under_row_scaling():
    m = [[1, 2], [3, 5]]
    scaled = [[Fraction(7, 3) * x for x in m[0]], m[1]]
    assert rank(m) == rank(scaled)


def test_kernel_dimension_braid_normals():
    # columns e1, e2, e3, (1,-1,0), (1,0,-1), (0,1,-1)
    m = [[1, 0, 0, 1, 1, 0],
         [0, 1, 0, -1, 0, 1],
         [0, 0, 1, 0, -1, -1]]
    assert len(m[0]) - rank(m) == 3


def test_kernel_dimension_identity():
    assert 3 - rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 0


def test_kernel_dimension_generic_four_columns():
    m = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert len(m[0]) - rank(m) == 1


def test_span_dimension():
    assert rank([]) == 0
    assert rank([(1, 0), (0, 1), (1, 1)]) == 2


def test_ragged_input_rejected():
    with pytest.raises(ValueError):
        rank([[1, 2], [1]])
    with pytest.raises(ValueError):
        rank([(1, 0), (1,)])


def test_rank_against_plain_gaussian_elimination():
    import random
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(cols)] for _ in range(rows)]
        assert rank(m) == oracles.rref_rank(m)


@pytest.mark.parametrize("bad", [0.5, 1.0, "3"])
def test_rank_refuses_an_entry_that_is_not_an_int_or_a_fraction(bad):
    # 0.5 once truncated to 0, so [[0.5, 0], [0, 1]] had rank 1
    with pytest.raises(TypeError, match="int or Fraction"):
        rank([[bad, 0], [0, 1]])
