"""Measurement-protocol checks against a spawned prover + vantage pair.

The Python side speaks the MeasureRequest/SampleReport envelope itself
(wire.py), so the daemons' byte layouts are pinned independently of the
C++ serializer, the emulated-delay knob is verified to actually land
inside the timed window, and concurrent auditors are verified to overlap
on one vantage.
"""

import threading
import time
import urllib.request

import framework
import wire


def _measure(port, prover_port, file_id, n_segments, rounds=4, seed=5,
             max_rtt_ms=0.0):
    sock = wire.connect(port)
    try:
        wire.write_frame(sock, wire.measure_request(
            "127.0.0.1", prover_port, file_id, n_segments, rounds, seed,
            max_rtt_ms))
        return wire.parse_sample_report(wire.read_frame(sock))
    finally:
        sock.close()


def test_honest_sweep_reports_samples():
    with framework.Harness() as harness:
        _, prover_port, file_id, n_segments = harness.spawn_prover()
        _, vantage_port = harness.spawn_vantage("sydney")

        report = _measure(vantage_port, prover_port, file_id, n_segments,
                          rounds=6)
        assert report["completed"], report["error"]
        assert report["name"] == "sydney"
        assert abs(report["lat"] - framework.CITIES["sydney"][0]) < 1e-6
        assert len(report["rtt_ms"]) == 6
        assert all(rtt > 0 for rtt in report["rtt_ms"])
        assert report["elapsed_ms"] >= max(report["rtt_ms"])

        harness.shutdown_all_clean()


def test_emulated_delay_lands_in_timed_window():
    oneway_ms = 15.0
    with framework.Harness() as harness:
        _, prover_port, file_id, n_segments = harness.spawn_prover()
        _, vantage_port = harness.spawn_vantage(
            "melbourne", extra_oneway_ms=oneway_ms)

        report = _measure(vantage_port, prover_port, file_id, n_segments,
                          rounds=4)
        assert report["completed"], report["error"]
        # Every sample must carry the emulated 2x one-way delay; the timer
        # can only overshoot, so the floor is sharp.
        assert min(report["rtt_ms"]) >= 2 * oneway_ms, report["rtt_ms"]
        assert min(report["rtt_ms"]) < 2 * oneway_ms + 50.0, report["rtt_ms"]

        harness.shutdown_all_clean()


def test_concurrent_sweeps_overlap():
    # Every sweep is a session on the vantage's serving loop, so K
    # auditors at once take about one sweep's wall time, not K.
    oneway_ms = 10.0
    auditors = 4
    with framework.Harness() as harness:
        _, prover_port, file_id, n_segments = harness.spawn_prover()
        _, vantage_port = harness.spawn_vantage(
            "melbourne", extra_oneway_ms=oneway_ms)

        def timed_sweep(seed):
            start = time.monotonic()
            report = _measure(vantage_port, prover_port, file_id, n_segments,
                              rounds=4, seed=seed)
            return report, (time.monotonic() - start) * 1e3

        one_sweep_ms = min(timed_sweep(seed)[1] for seed in (1, 2))
        results = [None] * auditors

        def auditor(k):
            results[k] = timed_sweep(10 + k)

        threads = [threading.Thread(target=auditor, args=(k,))
                   for k in range(auditors)]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_ms = (time.monotonic() - start) * 1e3

        for report, _ in results:
            assert report["completed"], report["error"]
            assert len(report["rtt_ms"]) == 4, report
            assert min(report["rtt_ms"]) >= 2 * oneway_ms, report["rtt_ms"]
        assert wall_ms < 1.5 * one_sweep_ms, (wall_ms, one_sweep_ms)

        harness.shutdown_all_clean()


def _gauge(metrics_port, name):
    url = f"http://127.0.0.1:{metrics_port}/metrics"
    with urllib.request.urlopen(url, timeout=10) as resp:
        for line in resp.read().decode("utf-8").splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
    raise AssertionError(f"{name} not exported")


def _wait_for(predicate, timeout_s):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_auditor_hangup_releases_its_session():
    # The sweep waits on a prover that stalls 2 s; the auditor hangs up
    # first, and the vantage lets the session go at once instead of
    # holding the prover connection until the stall ends.
    with framework.Harness() as harness:
        _, prover_port, file_id, n_segments = harness.spawn_prover(
            stall_ms=2000.0)
        lat, lon = framework.CITIES["hobart"]
        vantage = harness.spawn("vantage-hobart", [
            framework.binary("geoproof-vantage"), "--name=hobart",
            f"--lat={lat}", f"--lon={lon}", "--metrics-port=0",
        ])
        match = vantage.wait_for_line(r"READY port=(\d+) metrics_port=(\d+)")
        vantage_port, metrics_port = int(match.group(1)), int(match.group(2))
        in_flight = "geoproof_vantage_sessions_in_flight"
        assert _gauge(metrics_port, in_flight) == 0

        sock = wire.connect(vantage_port)
        try:
            wire.write_frame(sock, wire.measure_request(
                "127.0.0.1", prover_port, file_id, n_segments, 2, 5, 0.0))
            assert _wait_for(lambda: _gauge(metrics_port, in_flight) == 1,
                             1.0)
        finally:
            sock.close()
        assert _wait_for(lambda: _gauge(metrics_port, in_flight) == 0, 1.0)

        harness.shutdown_all_clean()


def test_timing_violations_counted():
    with framework.Harness() as harness:
        _, prover_port, file_id, n_segments = harness.spawn_prover(
            stall_ms=5.0)
        _, vantage_port = harness.spawn_vantage("sydney")

        report = _measure(vantage_port, prover_port, file_id, n_segments,
                          rounds=3, max_rtt_ms=1.0)
        assert report["completed"], report["error"]
        assert report["timing_violations"] == 3, report

        harness.shutdown_all_clean()


def test_unreachable_prover_reported_not_fatal():
    with framework.Harness() as harness:
        _, vantage_port = harness.spawn_vantage("sydney")
        # Port 1 on loopback: nothing listens there in the test container.
        report = _measure(vantage_port, 1, file_id=1, n_segments=4, rounds=2)
        assert not report["completed"]
        assert report["error"]
        # The vantage survives the failed sweep and still answers.
        sock = wire.connect(vantage_port)
        try:
            wire.write_frame(sock, wire.ping(3))
            nonce, _ = wire.parse_pong(wire.read_frame(sock))
            assert nonce == 3
        finally:
            sock.close()
        harness.shutdown_all_clean()


def test_byzantine_vantage_fabricates():
    with framework.Harness() as harness:
        _, prover_port, file_id, n_segments = harness.spawn_prover()
        _, vantage_port = harness.spawn_vantage("perth", lie_rtt_ms=10.0)

        report = _measure(vantage_port, prover_port, file_id, n_segments,
                          rounds=5)
        assert report["completed"]
        assert len(report["rtt_ms"]) == 5
        # Fabricated samples sit in [lie, 1.02*lie) regardless of the
        # actual path.
        assert all(10.0 <= rtt <= 10.3 for rtt in report["rtt_ms"]), report

        harness.shutdown_all_clean()


if __name__ == "__main__":
    framework.main([
        test_honest_sweep_reports_samples,
        test_emulated_delay_lands_in_timed_window,
        test_concurrent_sweeps_overlap,
        test_auditor_hangup_releases_its_session,
        test_timing_violations_counted,
        test_unreachable_prover_reported_not_fatal,
        test_byzantine_vantage_fabricates,
    ])
