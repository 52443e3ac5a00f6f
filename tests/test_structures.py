import numpy as np
import pytest

from modwrench.geometry import rotation_about_axis
from modwrench.structures import (
    ROTOR_DIAGONALS,
    SPIN_SIGNS,
    ModuleParams,
    RotorSpec,
    StructureConfig,
    StructureError,
    attachable_surfaces,
    build_configuration_matrix,
    canonical_form,
    center_of_mass,
    configuration_matrix,
    is_connected,
    is_torque_balanced,
    module_rotor_layout,
    rotor_configuration,
)

SQRT2 = np.sqrt(2.0)


def make_config(cells, **params):
    return StructureConfig(frozenset(cells), ModuleParams(**params))


def fixed_polyominoes(max_cells):
    """Translation-distinct 4-connected cell sets of 1..max_cells cells, one set per size."""
    levels = [{((0, 0),)}]
    while len(levels) < max_cells:
        grown = set()
        for cells in levels[-1]:
            for x, y in cells:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    if (x + dx, y + dy) in cells:
                        continue
                    new = cells + ((x + dx, y + dy),)
                    x0 = min(c[0] for c in new)
                    y0 = min(c[1] for c in new)
                    grown.add(tuple(sorted((cx - x0, cy - y0) for cx, cy in new)))
        levels.append(grown)
    return levels


class TestModuleParams:
    def test_defaults_valid(self):
        p = ModuleParams()
        assert p.eta == pytest.approx(np.pi / 4)
        assert p.side_length == 0.4
        assert p.f_max == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(side_length=-0.1),
        dict(arm_length=0.0),
        dict(arm_length=0.3),       # 0.3*sqrt(2) > 0.4
        dict(f_max=0.0),
        dict(c_tau=-0.01),
        dict(eta=np.pi / 2),
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(StructureError):
            ModuleParams(**kwargs)


class TestRotorLayout:
    def test_untilted_orientations_are_identity(self):
        rotors = module_rotor_layout(ModuleParams(eta=0.0))
        for spec in rotors:
            assert np.allclose(spec.orientation, np.eye(3))

    def test_tilted_thrust_directions(self):
        # Rodrigues oracle: cos(eta)*e3 + sin(eta)*(d_j x e3), alternating sign
        rotors = module_rotor_layout(ModuleParams(eta=np.pi / 4))
        assert np.allclose(rotors[0].thrust_direction(), [0.5, -0.5, SQRT2 / 2], atol=1e-12)
        assert np.allclose(rotors[1].thrust_direction(), [-0.5, -0.5, SQRT2 / 2], atol=1e-12)

    def test_positions_and_spins(self):
        p = ModuleParams()
        rotors = module_rotor_layout(p)
        for j, spec in enumerate(rotors):
            assert np.allclose(spec.position, p.arm_length * ROTOR_DIAGONALS[j])
            assert spec.position[2] == 0.0
            assert spec.spin_sign == SPIN_SIGNS[j]


class TestCenterOfMass:
    def test_single_module(self):
        assert np.allclose(center_of_mass(make_config({(0, 0)})), [0, 0, 0])

    def test_two_modules(self):
        assert np.allclose(center_of_mass(make_config({(0, 0), (1, 0)})), [0.2, 0, 0])

    def test_square_block(self):
        cfg = make_config({(0, 0), (1, 0), (0, 1), (1, 1)})
        assert np.allclose(center_of_mass(cfg), [0.2, 0.2, 0])


class TestRotorConfiguration:
    def test_single_module_positions(self):
        p = ModuleParams()
        rotors = rotor_configuration(make_config({(0, 0)}))
        assert len(rotors) == 4
        for j, spec in enumerate(rotors):
            assert np.allclose(spec.position, p.arm_length * ROTOR_DIAGONALS[j])
            assert spec.position[2] == 0.0

    def test_two_module_offsets(self):
        rotors = rotor_configuration(make_config({(0, 0), (1, 0)}))
        local = module_rotor_layout(ModuleParams())
        for j in range(4):
            assert np.allclose(rotors[j].position, local[j].position + [-0.2, 0, 0])
            assert np.allclose(rotors[4 + j].position, local[j].position + [0.2, 0, 0])

    def test_mean_rotor_position_is_origin(self):
        rng = np.random.default_rng(5)
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
        for _ in range(10):
            cells = {(0, 0)}
            while len(cells) < 5:
                ix, iy = sorted(cells)[rng.integers(len(cells))]
                dx, dy = steps[rng.integers(4)]
                cells.add((ix + dx, iy + dy))
            rotors = rotor_configuration(make_config(cells))
            mean = np.mean([r.position for r in rotors], axis=0)
            assert np.allclose(mean, 0.0, atol=1e-12)


class TestConfigurationMatrix:
    def test_unit_arm_column(self):
        spec = RotorSpec(np.array([1.0, 0, 0]), np.eye(3), 1)
        A = build_configuration_matrix([spec], c_tau=0.01)
        assert np.allclose(A[:, 0], [0, 0, 1, 0, -1, 0.01])

    def test_zero_arm_column(self):
        spec = RotorSpec(np.zeros(3), np.eye(3), -1)
        A = build_configuration_matrix([spec], c_tau=0.01)
        assert np.allclose(A[:, 0], [0, 0, 1, 0, 0, -0.01])

    def test_module_torque_columns_cancel(self):
        A = configuration_matrix(make_config({(0, 0)}))
        assert np.allclose(A[3:, :] @ np.ones(4), 0.0, atol=1e-14)

    def test_force_z_is_cos_eta(self):
        for eta in (0.0, 0.3, np.pi / 4, 1.2):
            A = configuration_matrix(make_config({(0, 0), (0, 1)}, eta=eta))
            assert np.max(np.abs(A[2, :] - np.cos(eta))) < 1e-12

    def test_single_module_rank_four(self):
        A = configuration_matrix(make_config({(0, 0)}))
        assert np.linalg.matrix_rank(A, tol=1e-9) == 4

    def test_translation_invariance(self):
        base = make_config({(0, 0), (1, 0), (1, 1)})
        moved = make_config({(7, -3), (8, -3), (8, -2)})
        assert np.max(np.abs(configuration_matrix(base) - configuration_matrix(moved))) < 1e-12


class TestTorqueBalance:
    def test_single_module_any_tilt(self):
        for eta in (0.1, np.pi / 4, 1.0):
            A = configuration_matrix(make_config({(0, 0)}, eta=eta))
            assert is_torque_balanced(A, 1e-10)

    def test_square_block(self):
        A = configuration_matrix(make_config({(0, 0), (1, 0), (0, 1), (1, 1)}))
        assert is_torque_balanced(A, 1e-10)

    def test_same_sign_tilt_mutant_unbalanced(self):
        # all four rotors tilted with the same sign instead of alternating
        p = ModuleParams(eta=np.pi / 4)
        rotors = [RotorSpec(p.arm_length * ROTOR_DIAGONALS[j],
                            rotation_about_axis(ROTOR_DIAGONALS[j], p.eta),
                            SPIN_SIGNS[j])
                  for j in range(4)]
        A = build_configuration_matrix(rotors, p.c_tau)
        assert not is_torque_balanced(A, 1e-10)
        assert np.linalg.norm(A[3:, :] @ np.ones(4)) > 1e-3

    def test_every_fixed_polyomino_balances(self):
        # Each module gives zero torque about its own centre under uniform
        # thrust and the module offsets from the COM sum to zero, so every
        # lattice design balances whatever the tilt and drag coefficient.
        levels = fixed_polyominoes(6)
        assert [len(level) for level in levels] == [1, 2, 6, 19, 63, 216]
        rng = np.random.default_rng(7)
        for eta, c_tau in zip(rng.uniform(0.05, 1.5, size=3), rng.uniform(0.001, 0.1, size=3)):
            for level in levels:
                for cells in level:
                    A = configuration_matrix(make_config(cells, eta=eta, c_tau=c_tau))
                    assert is_torque_balanced(A, 1e-10), (cells, eta, c_tau)


class TestSurfaces:
    def test_single_module_four_surfaces(self):
        assert len(attachable_surfaces(make_config({(0, 0)}))) == 4

    def test_domino_six_surfaces(self):
        assert len(attachable_surfaces(make_config({(0, 0), (1, 0)}))) == 6

    def test_square_block_eight_surfaces(self):
        cfg = make_config({(0, 0), (1, 0), (0, 1), (1, 1)})
        assert len(attachable_surfaces(cfg)) == 8

    def test_deterministic_order(self):
        cfg = make_config({(0, 0), (1, 0)})
        surfaces = attachable_surfaces(cfg)
        assert surfaces == sorted(surfaces, key=lambda s: (s[0], ["+x", "-x", "+y", "-y"].index(s[1])))


class TestConnectivity:
    def test_adjacent_pair(self):
        assert is_connected({(0, 0), (1, 0)})

    def test_gap(self):
        assert not is_connected({(0, 0), (2, 0)})

    def test_diagonal_is_not_docked(self):
        assert not is_connected({(0, 0), (1, 1)})

    def test_empty_set(self):
        assert not is_connected(set())

    def test_structure_rejects_disconnected(self):
        with pytest.raises(StructureError):
            make_config({(0, 0), (2, 0)})

    def test_structure_rejects_empty(self):
        with pytest.raises(StructureError):
            make_config(set())


class TestCanonicalForm:
    def test_translation_normalized(self):
        assert canonical_form({(5, 5), (6, 5)}) == ((0, 0), (1, 0))

    def test_translates_agree(self):
        assert canonical_form({(0, 0), (1, 0)}) == canonical_form({(3, -2), (4, -2)})

    def test_rotation_not_quotiented(self):
        assert canonical_form({(0, 0), (0, 1)}) != canonical_form({(0, 0), (1, 0)})

    def test_random_translates(self):
        rng = np.random.default_rng(11)
        cells = {(0, 0), (1, 0), (1, 1), (2, 1)}
        base = canonical_form(cells)
        for _ in range(20):
            dx, dy = rng.integers(-50, 50, size=2)
            shifted = {(ix + dx, iy + dy) for ix, iy in cells}
            assert canonical_form(shifted) == base
