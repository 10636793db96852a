import numpy as np
import pytest

from noisyvqc.channels import ChannelKind, SettingError
from noisyvqc.circuit import CNOT, AnsatzConfig


class TestCnotMatrix:
    def test_flips_target_when_control_set(self):
        ket10 = np.array([0, 0, 1, 0], dtype=complex)
        ket11 = np.array([0, 0, 0, 1], dtype=complex)
        np.testing.assert_array_equal(CNOT @ ket10, ket11)

    def test_leaves_00_alone(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_array_equal(CNOT @ ket00, ket00)

    def test_involution(self):
        np.testing.assert_array_equal(CNOT @ CNOT, np.eye(4))

    def test_read_only(self):
        # one shared array serves the evaluator and the oracle
        with pytest.raises(ValueError, match="read-only"):
            CNOT[0, 0] = 0


class TestAnsatzConfig:
    def test_config_probability_range(self):
        with pytest.raises(SettingError, match=r"1.5 outside \[0, 1\]") as exc:
            AnsatzConfig(channel=ChannelKind.BIT_FLIP, probability=1.5)
        assert exc.value.field == "probability"

    def test_config_layers_positive(self):
        with pytest.raises(SettingError, match="must be at least 1") as exc:
            AnsatzConfig(n_layers=0)
        assert exc.value.field == "n_layers"

    def test_negative_zero_probability_is_stored_as_zero(self):
        config = AnsatzConfig(ChannelKind.BIT_FLIP, -0.0)
        assert str(config.probability) == "0.0"
