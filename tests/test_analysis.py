import numpy as np
import pytest

from lacmas.analysis import check_admissibility
from lacmas.errors import ContractError
from lacmas.topology import build_ring


def test_identity_matrix_is_admissible(ring4):
    report = check_admissibility(np.eye(4), ring4)
    assert report.passed
    assert report.max_row_deviation == 0.0


def test_uniform_ring3_is_admissible():
    g = build_ring(3)
    assert check_admissibility(np.full((3, 3), 1 / 3), g).passed


def test_negative_entry_fails(ring4):
    m = np.eye(4)
    m[0, 0] = 1.2
    m[0, 1] = -0.2
    report = check_admissibility(m, ring4)
    assert not report.passed
    assert not report.nonnegative
    assert report.min_entry == pytest.approx(-0.2)


def test_off_pattern_entry_fails(ring4):
    # 0 and 2 are not adjacent in ring(4).
    m = np.eye(4)
    m[0, 0] = 0.5
    m[0, 2] = 0.5
    report = check_admissibility(m, ring4)
    assert not report.passed
    assert not report.graph_compatible
    assert report.first_violation == (0, 2)


def test_row_sum_deviation_fails(ring4):
    m = np.eye(4)
    m[1, 1] = 0.9999
    report = check_admissibility(m, ring4)
    assert not report.row_stochastic
    assert report.max_row_deviation == pytest.approx(1e-4)


def test_row_sum_tolerance_absorbs_rounding(ring4):
    m = np.eye(4)
    m[1, 1] = 1.0 + 5e-10
    assert check_admissibility(m, ring4).passed


def test_shape_mismatch_rejected(ring4):
    with pytest.raises(ContractError):
        check_admissibility(np.eye(3), ring4)
