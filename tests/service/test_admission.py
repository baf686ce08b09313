"""Admission control: capacity verdicts and their exported series."""

import pytest

from repro.obs import MetricsRegistry
from repro.service.admission import (
    REASON_BACKPRESSURE,
    REASON_CLIENTS,
    REASON_SESSIONS,
    AdmissionConfig,
    AdmissionController,
)


def make(
    max_sessions: int = 2, max_clients: int = 3, max_backlog: int = 2
) -> tuple[AdmissionController, MetricsRegistry]:
    registry = MetricsRegistry()
    config = AdmissionConfig(
        max_sessions=max_sessions,
        max_clients=max_clients,
        max_backlog=max_backlog,
    )
    return AdmissionController(config, registry), registry


class TestSessions:
    def test_limit_and_release(self):
        admission, registry = make(max_sessions=2)
        assert admission.admit_session()
        assert admission.admit_session()
        assert not admission.admit_session()
        assert (
            registry.value_of(
                "service_admission_rejections_total",
                {"reason": REASON_SESSIONS},
            )
            == 1
        )
        admission.release_session()
        assert admission.admit_session()
        assert registry.value_of("service_sessions_active") == 2

    def test_release_never_goes_negative(self):
        admission, registry = make()
        admission.release_session()
        assert admission.sessions_active == 0
        assert registry.value_of("service_sessions_active") == 0


class TestClients:
    def test_limit(self):
        admission, registry = make(max_clients=3)
        assert all(admission.admit_client() for _ in range(3))
        assert not admission.admit_client()
        assert registry.value_of("service_clients_active") == 3
        assert admission.rejection_counts()[REASON_CLIENTS] == 1


class TestBacklog:
    def test_per_session_bound(self):
        admission, _ = make(max_backlog=2)
        assert admission.admit_uplinks(0) == 1
        assert admission.admit_uplinks(1) == 1
        assert admission.admit_uplinks(2) == 0
        assert admission.rejection_counts()[REASON_BACKPRESSURE] == 1
        # A run is admitted row by row: what fits, and a count of the rest.
        assert admission.admit_uplinks(0, 5) == 2
        assert admission.admit_uplinks(1, 5) == 1
        assert admission.admit_uplinks(7, 5) == 0
        assert admission.rejection_counts()[REASON_BACKPRESSURE] == 1 + 3 + 4 + 5


class TestConfig:
    def test_frozen(self):
        config = AdmissionConfig()
        with pytest.raises(AttributeError):
            config.max_sessions = 5

    def test_rejection_counts_shape(self):
        admission, _ = make()
        assert set(admission.rejection_counts()) == {
            REASON_SESSIONS,
            REASON_CLIENTS,
            REASON_BACKPRESSURE,
        }
