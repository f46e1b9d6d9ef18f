"""FaultConfig validation: every bad parameter gets an actionable error."""

import pytest

from repro.errors import ProbingError
from repro.faults import FaultConfig


class TestValidation:
    def test_default_is_valid_and_noop(self):
        config = FaultConfig()
        config.validate()
        assert config.is_noop()

    def test_loss_rate_out_of_range(self):
        with pytest.raises(ProbingError, match="probe_loss_rate"):
            FaultConfig(probe_loss_rate=1.5).validate()
        with pytest.raises(ProbingError, match="probe_loss_rate"):
            FaultConfig(probe_loss_rate=-0.1).validate()

    def test_timeout_must_be_positive(self):
        with pytest.raises(ProbingError, match="probe_timeout_ms"):
            FaultConfig(probe_timeout_ms=0.0).validate()

    def test_negative_retries_rejected(self):
        with pytest.raises(ProbingError, match="max_retries"):
            FaultConfig(max_retries=-1).validate()

    def test_backoff_cap_below_base_rejected(self):
        with pytest.raises(ProbingError, match="backoff_cap_ms"):
            FaultConfig(backoff_base_ms=100.0, backoff_cap_ms=10.0).validate()

    def test_negative_backoff_base_rejected(self):
        with pytest.raises(ProbingError, match="backoff_base_ms"):
            FaultConfig(backoff_base_ms=-1.0).validate()

    def test_negative_crashed_landmarks_rejected(self):
        with pytest.raises(ProbingError, match="crashed_landmarks"):
            FaultConfig(crashed_landmarks=-1).validate()

    def test_quorum_out_of_range_rejected(self):
        with pytest.raises(ProbingError, match="quorum"):
            FaultConfig(quorum=1.2).validate()

    def test_zero_replacement_budget_rejected(self):
        with pytest.raises(ProbingError, match="max_landmark_replacements"):
            FaultConfig(max_landmark_replacements=0).validate()


class TestNoop:
    def test_loss_defeats_noop(self):
        assert not FaultConfig(probe_loss_rate=0.1).is_noop()

    def test_crashed_landmarks_defeats_noop(self):
        assert not FaultConfig(crashed_landmarks=1).is_noop()

    def test_timeout_tuning_alone_stays_noop(self):
        # Pure accounting knobs never alter a measurement.
        assert FaultConfig(
            probe_timeout_ms=10.0, max_retries=5, backoff_base_ms=1.0
        ).is_noop()
