"""The HTTP frontend, driven over a real socket on 127.0.0.1."""

import http.client
import json
import threading

import numpy as np
import pytest

from repro import models
from repro.nn import Tensor, no_grad
from repro.quantization import quantize_model, set_uniform_bits
from repro.serving import ServingEngine, compile_model
from repro.serving.http import make_server
from repro.telemetry import Telemetry

# A handler that never answers fails the test by timing out instead of
# hanging the suite.
TIMEOUT_S = 10.0


@pytest.fixture(scope="module")
def compiled():
    rng = np.random.default_rng(3)
    net = models.SmallConvNet(width=4, rng=rng)
    quantize_model(net, "pact")
    set_uniform_bits(net, 4, 4)
    calibration = rng.normal(size=(4, 3, 8, 8))
    with no_grad():
        net(Tensor(calibration))
    return compile_model(net, calibration)


@pytest.fixture()
def server(compiled):
    """``(host, port)`` of a live server in front of a real engine."""
    telemetry = Telemetry.create(log_level="silent")
    engine = ServingEngine(compiled, max_batch_size=4, max_wait_ms=1.0,
                           telemetry=telemetry)
    httpd = make_server(engine, telemetry.registry, port=0)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        yield httpd.server_address[:2]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(TIMEOUT_S)
        engine.close()
        telemetry.close()


def request(address, method, path, body=None, headers=None):
    """``(status, body bytes)`` of one request on a fresh connection."""
    conn = http.client.HTTPConnection(*address, timeout=TIMEOUT_S)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def predict(address, inputs):
    status, body = request(
        address, "POST", "/predict",
        body=json.dumps({"inputs": np.asarray(inputs).tolist()}),
        headers={"Content-Type": "application/json"},
    )
    return status, json.loads(body)


class TestPredict:
    def test_one_sample(self, server, compiled):
        x = np.random.default_rng(0).normal(size=compiled.input_shape)
        status, payload = predict(server, x)
        assert status == 200 and payload["ok"] is True
        assert len(payload["outputs"]) == 1
        np.testing.assert_array_equal(
            payload["outputs"][0], compiled.forward(x[None])[0]
        )

    def test_batch(self, server, compiled):
        batch = np.random.default_rng(1).normal(
            size=(3, *compiled.input_shape)
        )
        status, payload = predict(server, batch)
        assert status == 200 and payload["ok"] is True
        np.testing.assert_array_equal(
            payload["outputs"], compiled.forward(batch)
        )

    def test_malformed_body_is_rejected(self, server):
        status, body = request(server, "POST", "/predict", body=b"{nope")
        assert status == 400
        assert json.loads(body)["ok"] is False

    def test_missing_inputs_is_rejected(self, server):
        status, _ = request(server, "POST", "/predict", body=b"{}")
        assert status == 400

    @pytest.mark.parametrize("length", ["-1", "-5", "abc"])
    def test_bad_content_length_is_rejected(self, server, length):
        """``rfile.read(-1)`` reads to EOF: a handler passing ``-1``
        through would wait for the client to hang up."""
        status, _ = request(
            server, "POST", "/predict", body=b"",
            headers={"Content-Length": length},
        )
        assert status == 400


class TestRoutes:
    def test_healthz(self, server, compiled):
        status, body = request(server, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert "model" in payload

    def test_metrics_count_served_requests(self, server, compiled):
        predict(server, np.zeros(compiled.input_shape))
        status, body = request(server, "GET", "/metrics")
        assert status == 200
        assert "serving_requests_total" in body.decode()

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_unknown_route_is_404(self, server, method):
        status, _ = request(server, method, "/nope", body=b"{}")
        assert status == 404
