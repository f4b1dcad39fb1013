"""The load generator's HTTP/1.1 framing."""

from __future__ import annotations

import asyncio
import json
from fractions import Fraction

import pytest

from perfbench.loadgen import (
    ProtocolError,
    ResponseParser,
    encode_publish,
    encode_request,
)


def _response(status, body=b"", extra=""):
    head = (f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n"
            f"{extra}\r\n")
    return head.encode() + body


def test_requests_are_content_length_framed():
    get = encode_request("GET", "/metrics?format=prometheus")
    assert get.startswith(b"GET /metrics?format=prometheus HTTP/1.1\r\n")
    assert get.endswith(b"\r\n\r\n") and b"Content-Length" not in get
    post = encode_publish({"user": "u1", "n": 8, "alpha": "1/2",
                           "true_result": 3})
    head, _, body = post.partition(b"\r\n\r\n")
    assert b"Content-Length: %d" % len(body) in head
    assert json.loads(body)["alpha"] == "1/2"


def test_parser_splits_pipelined_responses():
    parser = ResponseParser()
    data = _response(200, b'{"value": 3}') + _response(429, b"{}")
    assert parser.feed(data) == [(200, b'{"value": 3}'), (429, b"{}")]
    assert parser.feed(b"HTTP/1.1 200 X\r\n") == []


def test_parser_reassembles_a_response_fed_byte_by_byte():
    parser = ResponseParser()
    body = b"line one\r\n\r\nline two"     # a blank line inside the body
    data = _response(200, body, "Connection: keep-alive\r\n")
    out = []
    for i in range(len(data)):
        out += parser.feed(data[i:i + 1])
    assert out == [(200, body)]


@pytest.mark.parametrize("data", [
    b"HTTP/1.1 200 OK\r\n\r\n",                      # no Content-Length
    b"SMTP 220 hello\r\nContent-Length: 0\r\n\r\n",  # not HTTP
    b"HTTP/1.1 abc X\r\nContent-Length: 0\r\n\r\n",  # bad status
    b"HTTP/1.1 200 X\r\nContent-Length: -1\r\n\r\n",
])
def test_parser_refuses_malformed_responses(data):
    with pytest.raises(ProtocolError):
        ResponseParser().feed(data)


def test_round_trip_against_the_server(tmp_path):
    from repro.release.artifacts import ArtifactSpec, ArtifactStore
    from repro.serving import MechanismServer

    store = ArtifactStore(tmp_path)
    store.get_or_compile(ArtifactSpec("geometric", 8, Fraction(1, 2)))

    async def exchange():
        server = MechanismServer(store, seed=1)
        server.load_store()
        await server.start(port=0)
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        writer.write(encode_publish({"user": "u1", "n": 8, "alpha": "1/2",
                                     "true_result": 3}))
        writer.write(encode_request("GET", "/healthz"))
        parser, responses = ResponseParser(), []
        while len(responses) < 2:
            responses += parser.feed(await reader.read(1 << 16))
        writer.close()
        await server.stop()
        return responses

    (status, body), (health, _) = asyncio.run(exchange())
    assert status == 200 and health == 200
    assert 0 <= json.loads(body)["value"] <= 8
