"""Tests for the simulated network links."""

import pytest

from repro.errors import NetworkError
from repro.net import NetworkLink


class TestNetworkLink:
    def test_transfer_time_matches_bandwidth(self):
        link = NetworkLink("wan", bandwidth_mbps=30.0, latency_ms=0.0)
        # 30 Mbps == 3.75 MB/s, so 3.75 MB takes one second.
        assert link.transfer_seconds(3_750_000) == pytest.approx(1.0)

    def test_latency_added(self):
        link = NetworkLink("wan", bandwidth_mbps=1000.0, latency_ms=50.0)
        assert link.transfer_seconds(0) == pytest.approx(0.05)

    def test_accounting(self):
        link = NetworkLink("wan", bandwidth_mbps=10.0)
        link.transfer(1000)
        link.transfer(2000)
        assert (link.transfer_count, link.total_bytes) == (2, 3000)
        # A left fold in delivery order, bit for bit.
        assert link.total_seconds == (0.0 + link.transfer_seconds(1000)
                                      + link.transfer_seconds(2000))

    def test_validation(self):
        with pytest.raises(NetworkError):
            NetworkLink("bad", bandwidth_mbps=0.0)
        link = NetworkLink("ok", bandwidth_mbps=1.0)
        with pytest.raises(NetworkError):
            link.transfer_seconds(-1)


    @pytest.mark.parametrize("build", [
        lambda: NetworkLink("l", float("nan")),
        lambda: NetworkLink("l", float("inf")),
        lambda: NetworkLink("l", -1.0),
        lambda: NetworkLink("l", 10, latency_ms=float("nan")),
        lambda: NetworkLink("l", 10, latency_ms=float("inf")),
        lambda: NetworkLink("l", 10, latency_ms=-1.0),
        lambda: NetworkLink("l", 10).transfer_seconds(float("nan")),
        lambda: NetworkLink("l", 10).transfer_seconds(float("inf")),
        lambda: NetworkLink("l", 10).transfer(float("nan")),
    ], ids=["bandwidth-nan", "bandwidth-inf", "bandwidth-negative",
            "latency-nan", "latency-inf", "latency-negative",
            "transfer_seconds-nan", "transfer_seconds-inf", "transfer-nan"])
    def test_non_finite_values_refused(self, build):
        """``nan <= 0`` is false, so one-sided guards let nan through, and
        an infinite bandwidth moved anything in 0.0 s."""
        with pytest.raises(NetworkError):
            build()
