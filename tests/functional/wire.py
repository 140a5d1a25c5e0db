"""Python-side speakers of the GeoProof wire protocols.

Deliberately independent of the C++ serializers: the functional tests use
these to prove the documented byte layouts are what the daemons actually
speak (4-byte big-endian length frames; core::SegmentRequest; the
daemon/wire.hpp selector envelope). Stdlib only.
"""

import socket
import struct

MAX_FRAME = 64 * 1024 * 1024

# daemon/wire.hpp selectors
MSG_PING = 0x01
MSG_MEASURE_REQUEST = 0x02
MSG_PONG = 0x81
MSG_SAMPLE_REPORT = 0x82
MSG_ERROR_REPLY = 0xFF


def connect(port, host="127.0.0.1", timeout=60.0):
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def write_frame(sock, payload):
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        buf += chunk
    return buf


def read_frame(sock):
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if length > MAX_FRAME:
        raise ValueError(f"frame length {length} exceeds cap")
    return _recv_exact(sock, length)


def segment_request(file_id, index):
    """core::SegmentRequest: two big-endian u64s."""
    return struct.pack(">QQ", file_id, index)


def ping(nonce):
    return struct.pack(">BQ", MSG_PING, nonce)


def parse_pong(frame):
    selector, nonce = struct.unpack_from(">BQ", frame)
    assert selector == MSG_PONG, f"selector {selector:#x}"
    (name_len,) = struct.unpack_from(">I", frame, 9)
    name = frame[13:13 + name_len].decode()
    assert len(frame) == 13 + name_len, "trailing bytes in Pong"
    return nonce, name


def measure_request(prover_host, prover_port, file_id, n_segments, rounds,
                    probe_seed, max_rtt_ms=0.0):
    host = prover_host.encode()
    return (struct.pack(">B", MSG_MEASURE_REQUEST)
            + struct.pack(">I", len(host)) + host
            + struct.pack(">HQQIQd", prover_port, file_id, n_segments,
                          rounds, probe_seed, max_rtt_ms))


def parse_sample_report(frame):
    (selector,) = struct.unpack_from(">B", frame)
    assert selector == MSG_SAMPLE_REPORT, f"selector {selector:#x}"
    off = 1
    (name_len,) = struct.unpack_from(">I", frame, off)
    off += 4
    name = frame[off:off + name_len].decode()
    off += name_len
    lat, lon, completed = struct.unpack_from(">ddB", frame, off)
    off += 17
    (err_len,) = struct.unpack_from(">I", frame, off)
    off += 4
    error = frame[off:off + err_len].decode()
    off += err_len
    (n_samples,) = struct.unpack_from(">I", frame, off)
    off += 4
    rtt_ms = list(struct.unpack_from(f">{n_samples}d", frame, off))
    off += 8 * n_samples
    violations, elapsed_ms = struct.unpack_from(">Id", frame, off)
    off += 12
    assert off == len(frame), "trailing bytes in SampleReport"
    return {
        "name": name, "lat": lat, "lon": lon,
        "completed": completed == 1, "error": error, "rtt_ms": rtt_ms,
        "timing_violations": violations, "elapsed_ms": elapsed_ms,
    }
