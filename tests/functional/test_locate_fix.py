"""End-to-end position fixes through the full spawned pipeline.

Lays out a vantage fleet whose emulated delays encode a real geometry
(prover "at" Brisbane, RTT slope 0.05 ms/km), runs geoproof-audit against
the live processes, and checks the fix against the paper's error model.
This is the ISSUE acceptance scenario: one geoproofd + >= 3 vantage
daemons + the auditor CLI, all torn down cleanly.
"""

import framework

# RTT slope of the emulated world (ms of round trip per km). The vantage
# waits 2 x extra_oneway_ms inside its timed window, so one-way padding
# is (slope / 2) x distance.
RTT_MS_PER_KM = 0.05
TRUTH = framework.CITIES["brisbane"]


def _oneway_ms(city):
    return (RTT_MS_PER_KM / 2.0) * framework.haversine_km(
        framework.CITIES[city], TRUTH)


def _spawn_fleet(harness, honest, liars=()):
    """Spawn honest vantages (geometry-true delay) plus liars (fixed
    fabricated RTT); returns the list of listen ports in spawn order."""
    ports = []
    for city in honest:
        _, port = harness.spawn_vantage(city, extra_oneway_ms=_oneway_ms(city))
        ports.append(port)
    for city, lie_ms in liars:
        _, port = harness.spawn_vantage(city, lie_rtt_ms=lie_ms)
        ports.append(port)
    return ports


def test_honest_fleet_fixes_prover_position():
    honest = ["sydney", "melbourne", "townsville", "perth"]
    with framework.Harness() as harness:
        _, prover_port, file_id, n_segments = harness.spawn_prover()
        ports = _spawn_fleet(harness, honest)

        rc, report = framework.run_audit(
            ports, prover_port, file_id, n_segments,
            cal_ms_per_km=RTT_MS_PER_KM)
        assert rc == 0, report
        estimate = report["estimate"]
        assert estimate is not None
        assert estimate["converged"]
        error_km = framework.haversine_km(
            (estimate["lat"], estimate["lon"]), TRUTH)
        assert error_km < 250.0, f"fix {error_km:.1f} km off Brisbane"
        assert report["responded"] == len(honest)
        assert report["completed"] == len(honest)
        assert sorted(estimate["inliers"]) == list(range(len(honest)))

        harness.shutdown_all_clean()


def test_byzantine_minority_is_ejected():
    # 7 = 3f + 1 with f = 2: the solver's 2/3 inlier floor tolerates two
    # colluding liars claiming the prover is implausibly near them.
    honest = ["sydney", "melbourne", "townsville", "armidale", "adelaide"]
    liars = [("perth", 10.0), ("hobart", 12.0)]
    with framework.Harness() as harness:
        _, prover_port, file_id, n_segments = harness.spawn_prover()
        ports = _spawn_fleet(harness, honest, liars)

        rc, report = framework.run_audit(
            ports, prover_port, file_id, n_segments,
            cal_ms_per_km=RTT_MS_PER_KM)
        assert rc == 0, report
        estimate = report["estimate"]
        assert estimate["converged"]
        assert sorted(estimate["outliers"]) == [5, 6], estimate
        error_km = framework.haversine_km(
            (estimate["lat"], estimate["lon"]), TRUTH)
        assert error_km < 250.0, f"fix {error_km:.1f} km off Brisbane"

        harness.shutdown_all_clean()


def test_dead_vantage_does_not_block_the_fix():
    honest = ["sydney", "melbourne", "townsville", "adelaide"]
    with framework.Harness() as harness:
        _, prover_port, file_id, n_segments = harness.spawn_prover()
        ports = _spawn_fleet(harness, honest)
        # One endpoint nobody listens on: the audit must degrade, not hang.
        rc, report = framework.run_audit(
            ports + [1], prover_port, file_id, n_segments,
            cal_ms_per_km=RTT_MS_PER_KM)
        assert rc == 0, report
        assert report["responded"] == len(honest)
        dead = report["vantages"][-1]
        assert not dead["responded"]
        assert dead["error"]
        assert report["estimate"]["converged"]

        harness.shutdown_all_clean()


def test_too_few_vantages_yields_no_fix_exit_3():
    with framework.Harness() as harness:
        _, prover_port, file_id, n_segments = harness.spawn_prover()
        ports = _spawn_fleet(harness, ["sydney", "melbourne"])
        rc, report = framework.run_audit(
            ports, prover_port, file_id, n_segments,
            cal_ms_per_km=RTT_MS_PER_KM)
        assert rc == 3, report
        assert report["estimate"] is None
        harness.shutdown_all_clean()


if __name__ == "__main__":
    framework.main([
        test_honest_fleet_fixes_prover_position,
        test_byzantine_minority_is_ejected,
        test_dead_vantage_does_not_block_the_fix,
        test_too_few_vantages_yields_no_fix_exit_3,
    ])
