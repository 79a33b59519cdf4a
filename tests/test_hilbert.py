import numpy as np
import pytest

from dicke_battery.hilbert import (
    SectorBasis,
    SectorState,
    build_sector,
    initial_state,
    target_state,
)


def test_basic_sector_shape():
    basis = build_sector(3, 100)
    assert basis.dimension == 4
    assert basis.K == 3
    assert basis.photon_count(0) == 100


def test_single_spin_sector():
    assert build_sector(1, 1).dimension == 2


def test_oversubscribed_cavity_sector():
    # more spins than photons: the ladder stops at k = n
    basis = build_sector(100, 90)
    assert basis.dimension == 91
    assert basis.K == 90
    assert basis.photon_count(90) == 0


def test_excitation_number_is_conserved_quantity():
    basis = build_sector(4, 7)
    # rung k holds spin projection m = -N/2 + k
    for k in range(basis.dimension):
        assert basis.photon_count(k) + (-basis.N / 2 + k) == basis.excitation_number


def test_bookkeeping_photons_plus_transfers():
    for N, n in ((1, 1), (3, 100), (10, 4), (7, 7)):
        basis = build_sector(N, n)
        for k in range(basis.dimension):
            assert basis.photon_count(k) + k == n


@pytest.mark.parametrize("N,n", [(0, 5), (5, 0), (-1, 3), (3, -2)])
def test_rejects_empty_systems(N, n):
    with pytest.raises(ValueError):
        build_sector(N, n)


def test_rejects_oversize_counts():
    with pytest.raises(ValueError):
        build_sector(10**6 + 1, 5)
    with pytest.raises(ValueError):
        build_sector(5, 10**6 + 1)


def test_rejects_oversize_ladder():
    with pytest.raises(ValueError, match="ladder"):
        build_sector(20_000, 20_000)
    # one huge count is fine as long as the other stays small
    assert build_sector(10**6, 3).dimension == 4


def test_ladder_index_bounds():
    basis = build_sector(2, 5)
    with pytest.raises(ValueError):
        basis.photon_count(3)
    with pytest.raises(ValueError):
        basis.photon_count(-1)


def test_initial_state_is_discharged():
    basis = build_sector(3, 100)
    state = initial_state(basis)
    np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0])
    assert np.linalg.norm(state.amplitudes) == 1.0


def test_target_state_is_fully_charged():
    basis = build_sector(3, 100)
    state = target_state(basis)
    assert state.amplitudes[3] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert basis.photon_count(3) == 97


def test_target_state_unreachable_without_enough_photons():
    with pytest.raises(ValueError, match="full charge unreachable"):
        target_state(build_sector(100, 90))


def test_initial_and_target_are_orthogonal():
    basis = build_sector(5, 9)
    overlap = np.vdot(target_state(basis).amplitudes, initial_state(basis).amplitudes)
    assert overlap == 0


def test_state_requires_unit_norm():
    basis = build_sector(2, 2)
    with pytest.raises(ValueError, match="norm"):
        SectorState(basis, np.array([1.0, 1.0, 0.0]))
    SectorState(basis, np.array([1.0, 1.0, 1.0]) / np.sqrt(3))


def test_state_requires_matching_dimension():
    basis = build_sector(2, 2)
    with pytest.raises(ValueError, match="shape"):
        SectorState(basis, np.array([1.0, 0.0]))


def test_state_amplitudes_are_frozen():
    state = initial_state(build_sector(2, 2))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5


def test_state_does_not_alias_caller_array():
    basis = build_sector(1, 1)
    raw = np.array([1.0 + 0j, 0.0])
    state = SectorState(basis, raw)
    raw[0] = 0.0
    assert state.amplitudes[0] == 1.0


def test_basis_equality_is_by_value():
    assert build_sector(3, 7) == SectorBasis(3, 7)
    assert build_sector(3, 7) != build_sector(3, 8)
