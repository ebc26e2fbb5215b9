import socket
import threading
import time
from pathlib import Path

import pytest

from radmat import ProviderError
from radmat.docio import write_document
from radmat.errors import DomainError
from radmat.vlm import (
    DEFAULT_SCALAR,
    PROMPT,
    ProviderConfig,
    VisualQuery,
    normalized_entropy,
    parse_response,
    propose,
)
from conftest import ProviderHandler

FIXTURES = str(Path(__file__).parent / "data" / "vlm_fixtures.json")


def mock_config(**kwargs):
    return ProviderConfig(mode="mock", fixture_path=FIXTURES, **kwargs)


class TestParseResponse:
    def test_accepts_normalized_list(self):
        out = parse_response({"candidates": [["glass", 0.7], ["plastic", 0.3]]})
        assert out == [("glass", 0.7), ("plastic", 0.3)]

    def test_renormalizes_within_one_percent(self):
        out = parse_response({"candidates": [["glass", 0.7], ["plastic", 0.305]]})
        assert sum(p for _, p in out) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_sum_outside_tolerance(self):
        with pytest.raises(DomainError):
            parse_response({"candidates": [["glass", 0.7], ["plastic", 0.5]]})

    def test_rejects_missing_candidates(self):
        with pytest.raises(KeyError):
            parse_response({"answer": "glass"})


class TestNormalizedEntropy:
    def test_two_way_split(self):
        # -(0.6 ln 0.6 + 0.4 ln 0.4) / ln 2
        h = normalized_entropy([("glass", 0.6), ("plastic", 0.4)])
        assert h == pytest.approx(0.9709505944546686, rel=1e-12)

    def test_single_candidate_zero(self):
        assert normalized_entropy([("metal", 1.0)]) == 0.0

    def test_uniform_distribution_is_one(self):
        h = normalized_entropy([("a", 0.25), ("b", 0.25), ("c", 0.25), ("d", 0.25)])
        assert h == pytest.approx(1.0, rel=1e-12)


class TestMockProvider:
    def test_fixture_lookup(self):
        ctx = propose(VisualQuery("a5_cup"), mock_config())
        assert ctx.candidates[0] == ("mirror glass", 0.6)
        assert ctx.vlm_entropy == pytest.approx(0.9709505944546686, rel=1e-12)
        assert ctx.luminance == 0.8

    def test_pure_lookup_same_query_same_context(self):
        a = propose(VisualQuery("a2_cup"), mock_config())
        b = propose(VisualQuery("a2_cup"), mock_config())
        assert a == b

    def test_single_candidate_entropy_zero(self):
        ctx = propose(VisualQuery("single_metal"), mock_config())
        assert ctx.vlm_entropy == 0.0

    def test_fixture_miss(self):
        with pytest.raises(ProviderError, match="no fixture"):
            propose(VisualQuery("unknown_object"), mock_config())

    @pytest.mark.parametrize(
        "entry, reason",
        [
            pytest.param({"candidates": "glass"}, "not an array", id="string-candidates"),
            pytest.param({"candidates": []}, "non-empty array", id="empty-candidates"),
            pytest.param({"candidates": [["glass"]]}, "unpack", id="short-pair"),
            pytest.param({"luminance": 0.5}, "missing key 'candidates'", id="no-candidates"),
            # a sum of 1 passes parse_response; VisualContext refuses the list
            pytest.param(
                {"candidates": [["glass", 1.2], ["plastic", -0.2]]},
                r"must lie in \[0, 1\]",
                id="negative-probability",
            ),
            pytest.param({"candidates": [["", 1.0]]}, "non-empty", id="empty-name"),
            pytest.param(
                {"candidates": [["glass", 1.0]], "luminence": 0.05},
                r"unknown keys \['luminence'\]",
                id="misspelt-key",
            ),
        ],
    )
    def test_faulty_fixture_entry_is_provider_error(self, tmp_path, entry, reason):
        fixtures = tmp_path / "fixtures.json"
        write_document(fixtures, {"cup": entry})
        config = ProviderConfig(mode="mock", fixture_path=str(fixtures))
        with pytest.raises(ProviderError, match=reason):
            propose(VisualQuery("cup"), config)


@pytest.fixture()
def image_file(tmp_path):
    path = tmp_path / "object.png"
    path.write_bytes(b"\x89PNG fake image bytes")
    return str(path)


class TestHttpProvider:
    def test_success_round_trip(self, http_server, image_file):
        cfg = ProviderConfig(mode="http", endpoint_url=http_server)
        ctx = propose(VisualQuery(image_file), cfg)
        assert ctx.candidates[0] == ("glass", 0.6)
        assert ctx.luminance == 0.65  # from response metadata
        assert ctx.complexity == DEFAULT_SCALAR  # absent from the response
        assert ProviderHandler.seen["body"]["prompt"] == PROMPT
        assert "image_base64" in ProviderHandler.seen["body"]

    def test_auth_token_from_environment(self, http_server, image_file, monkeypatch):
        monkeypatch.setenv("RADMAT_TEST_TOKEN", "sekrit")
        cfg = ProviderConfig(
            mode="http", endpoint_url=http_server, auth_token_env_name="RADMAT_TEST_TOKEN"
        )
        propose(VisualQuery(image_file), cfg)
        assert ProviderHandler.seen["auth"] == "Bearer sekrit"

    def test_missing_auth_token_fails(self, http_server, image_file, monkeypatch):
        monkeypatch.delenv("RADMAT_NO_SUCH_TOKEN", raising=False)
        cfg = ProviderConfig(
            mode="http", endpoint_url=http_server, auth_token_env_name="RADMAT_NO_SUCH_TOKEN"
        )
        with pytest.raises(ProviderError, match="environment variable"):
            propose(VisualQuery(image_file), cfg)

    def test_non_2xx_is_error(self, http_server, image_file):
        ProviderHandler.behaviour = "error"
        cfg = ProviderConfig(mode="http", endpoint_url=http_server)
        with pytest.raises(ProviderError, match="HTTP 500"):
            propose(VisualQuery(image_file), cfg)

    def test_malformed_body_is_error(self, http_server, image_file):
        ProviderHandler.behaviour = "garbage"
        cfg = ProviderConfig(mode="http", endpoint_url=http_server)
        with pytest.raises(ProviderError, match="non-JSON"):
            propose(VisualQuery(image_file), cfg)

    @pytest.mark.parametrize(
        "behaviour, reason",
        [
            ("bright", "bright"),
            ("array", "not an object"),
            pytest.param("extra", r"unknown keys \['model'\]", id="extra-unknown-key"),
        ],
    )
    def test_faulty_answer_is_error(self, http_server, image_file, behaviour, reason):
        ProviderHandler.behaviour = behaviour
        cfg = ProviderConfig(mode="http", endpoint_url=http_server)
        with pytest.raises(ProviderError, match=reason):
            propose(VisualQuery(image_file), cfg)

    def test_timeout_is_error_not_hang(self, http_server, image_file):
        ProviderHandler.behaviour = "slow"
        cfg = ProviderConfig(mode="http", endpoint_url=http_server, timeout_ms=200)
        started = time.monotonic()
        with pytest.raises(ProviderError, match="timed out"):
            propose(VisualQuery(image_file), cfg)
        assert time.monotonic() - started < 5.0

    def test_malformed_status_line_is_transport_failure(self, image_file):
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_garbage():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"garbage\r\n\r\n")

        thread = threading.Thread(target=answer_garbage, daemon=True)
        thread.start()
        port = listener.getsockname()[1]
        cfg = ProviderConfig(mode="http", endpoint_url=f"http://127.0.0.1:{port}/infer")
        with pytest.raises(ProviderError, match="transport"):
            propose(VisualQuery(image_file), cfg)
        thread.join(timeout=5.0)
        listener.close()

    def test_unreachable_endpoint(self, image_file):
        cfg = ProviderConfig(
            mode="http", endpoint_url="http://127.0.0.1:9/infer", timeout_ms=500
        )
        with pytest.raises(ProviderError, match="transport"):
            propose(VisualQuery(image_file), cfg)

    def test_missing_image_file(self, http_server):
        cfg = ProviderConfig(mode="http", endpoint_url=http_server)
        with pytest.raises(ProviderError, match="cannot read image"):
            propose(VisualQuery("/nonexistent/image.png"), cfg)


class TestProviderConfig:
    def test_http_requires_endpoint(self):
        with pytest.raises(DomainError):
            ProviderConfig(mode="http")

    def test_mock_requires_fixture(self):
        with pytest.raises(DomainError):
            ProviderConfig(mode="mock")

    def test_empty_image_ref_rejected(self):
        with pytest.raises(DomainError):
            VisualQuery("")
