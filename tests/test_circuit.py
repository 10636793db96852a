import numpy as np
import pytest

from noisyvqc.channels import ChannelKind, SettingError
from noisyvqc.circuit import AnsatzConfig, cnot_matrix


class TestCnotMatrix:
    def test_flips_target_when_control_set(self):
        cnot = cnot_matrix()
        ket10 = np.array([0, 0, 1, 0], dtype=complex)
        ket11 = np.array([0, 0, 0, 1], dtype=complex)
        np.testing.assert_array_equal(cnot @ ket10, ket11)

    def test_leaves_00_alone(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_array_equal(cnot_matrix() @ ket00, ket00)

    def test_involution(self):
        np.testing.assert_array_equal(cnot_matrix() @ cnot_matrix(), np.eye(4))

    def test_reversed_orientation(self):
        # control on qubit 1 flips qubit 0: |01> -> |11>
        cnot = cnot_matrix(control=1, target=0)
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        ket11 = np.array([0, 0, 0, 1], dtype=complex)
        np.testing.assert_array_equal(cnot @ ket01, ket11)

    def test_invalid_qubits(self):
        with pytest.raises(ValueError):
            cnot_matrix(0, 0)
        with pytest.raises(ValueError):
            cnot_matrix(0, 2)


class TestAnsatzConfig:
    def test_config_probability_range(self):
        with pytest.raises(SettingError, match=r"1.5 outside \[0, 1\]") as exc:
            AnsatzConfig(channel=ChannelKind.BIT_FLIP, probability=1.5)
        assert exc.value.field == "probability"

    def test_config_layers_positive(self):
        with pytest.raises(SettingError, match="must be at least 1") as exc:
            AnsatzConfig(n_layers=0)
        assert exc.value.field == "n_layers"
