"""Lifecycle + raw-protocol checks on the spawned daemons.

Covers the harness contract every other functional test builds on: the
READY/FILE stdout handshake, the prover's byte-compatibility with
core::SegmentRequest (spoken here from Python, independently of the C++
serializer), the vantage control envelope, and the SIGTERM -> exit 0
guarantee with no leaked children.
"""

import struct
import sys

import framework
import wire


def test_prover_handshake_and_segment_fetch():
    with framework.Harness() as harness:
        prover, port, file_id, n_segments = harness.spawn_prover(
            file_bytes=8192, seed=11)
        assert port > 0
        assert n_segments > 0

        sock = wire.connect(port)
        try:
            # Two fetches of the same segment must be identical bytes
            # (deterministic store), a different index different bytes.
            wire.write_frame(sock, wire.segment_request(file_id, 0))
            first = wire.read_frame(sock)
            wire.write_frame(sock, wire.segment_request(file_id, 0))
            again = wire.read_frame(sock)
            wire.write_frame(sock, wire.segment_request(file_id, 1))
            other = wire.read_frame(sock)
        finally:
            sock.close()
        assert first, "empty segment"
        assert first == again, "segment fetch is not deterministic"
        assert first != other, "distinct indices returned identical bytes"

        harness.shutdown_all_clean()


def test_prover_rejects_garbage_without_dying():
    with framework.Harness() as harness:
        prover, port, file_id, _ = harness.spawn_prover(file_bytes=4096)

        # A malformed frame drops that connection only.
        bad = wire.connect(port)
        wire.write_frame(bad, b"\x01\x02\x03")
        try:
            wire.read_frame(bad)
            raise AssertionError("malformed request should drop the conn")
        except (ConnectionError, OSError):
            pass
        finally:
            bad.close()

        # The daemon still serves fresh connections afterwards.
        good = wire.connect(port)
        try:
            wire.write_frame(good, wire.segment_request(file_id, 0))
            assert wire.read_frame(good)
        finally:
            good.close()

        harness.shutdown_all_clean()


def test_vantage_answers_ping():
    with framework.Harness() as harness:
        vantage, port = harness.spawn_vantage("sydney")
        sock = wire.connect(port)
        try:
            wire.write_frame(sock, wire.ping(0xDEADBEEF))
            nonce, name = wire.parse_pong(wire.read_frame(sock))
        finally:
            sock.close()
        assert nonce == 0xDEADBEEF
        assert name == "sydney"
        harness.shutdown_all_clean()


def test_sigterm_exits_zero_even_mid_service():
    with framework.Harness() as harness:
        prover, port, file_id, _ = harness.spawn_prover(file_bytes=4096)
        # Leave a connection open across the shutdown: teardown must not
        # hang on or crash over a live client.
        sock = wire.connect(port)
        wire.write_frame(sock, wire.segment_request(file_id, 0))
        wire.read_frame(sock)
        try:
            harness.shutdown_all_clean()
        finally:
            sock.close()


def test_flag_errors_exit_2():
    import subprocess
    result = subprocess.run(
        [framework.binary("geoproofd"), "--no-such-flag=1"],
        capture_output=True, text=True, timeout=30)
    assert result.returncode == 2, result.returncode
    assert "unknown flag" in result.stderr

    result = subprocess.run(
        [framework.binary("geoproof-audit"), "--help"],
        capture_output=True, text=True, timeout=30)
    assert result.returncode == 0
    assert "--vantage" in result.stdout


if __name__ == "__main__":
    framework.main([
        test_prover_handshake_and_segment_fetch,
        test_prover_rejects_garbage_without_dying,
        test_vantage_answers_ping,
        test_sigterm_exits_zero_even_mid_service,
        test_flag_errors_exit_2,
    ])
