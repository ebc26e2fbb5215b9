"""Visual branch providers: a deterministic fixture-backed mock and a
generic HTTP-JSON adapter for live models.

Both return a VisualContext for an image reference.  The candidate
distribution's normalized Shannon entropy becomes the epistemic
uncertainty term; luminance/complexity come from scene hints, fixture
entries, or response metadata (default 0.5 when nothing supplies them).

HTTP contract: POST {"prompt": ..., "image_base64": ...} to the endpoint;
the response must carry a "candidates" array of [name, probability]
pairs (renormalized when the sum is within 1 percent of one, rejected
otherwise).  Auth tokens are only ever read from the environment
variable named in the provider config.
"""

import base64
import http.client
import json
import math
import os
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from .docio import from_document, read_document
from .errors import DocumentError, DomainError, ProviderError
from .fusion import VisualContext

DEFAULT_PROMPT = "What is this object and what is the material?"
DEFAULT_SCALAR = 0.5
# provider-document keys of earlier versions, read and ignored
_LEGACY_KEYS = ("max_in_flight",)


@dataclass(frozen=True)
class VisualQuery:
    image_ref: str
    prompt_text: str = DEFAULT_PROMPT
    scene_hints: dict | None = None  # optional luminance/complexity overrides

    def __post_init__(self):
        if not self.image_ref:
            raise DomainError("image_ref must not be empty")


@dataclass(frozen=True)
class ProviderConfig:
    mode: str  # "mock" | "http"
    endpoint_url: str | None = None
    auth_token_env_name: str | None = None
    timeout_ms: int = 10000
    fixture_path: str | None = None

    def __post_init__(self):
        if self.mode not in ("mock", "http"):
            raise DomainError("provider mode must be 'mock' or 'http'")
        if self.mode == "http" and not self.endpoint_url:
            raise DomainError("http mode requires endpoint_url")
        if self.mode == "mock" and not self.fixture_path:
            raise DomainError("mock mode requires fixture_path")
        if self.timeout_ms <= 0:
            raise DomainError("timeout must be positive")

    @classmethod
    def from_document(cls, doc: dict) -> "ProviderConfig":
        return from_document(cls, doc, DocumentError, "provider_config", _LEGACY_KEYS)


def parse_response(body) -> list:
    """Validate a candidates payload into a normalized (name, prob) list."""
    if isinstance(body, str):
        try:
            body = json.loads(body)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"response body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict) or "candidates" not in body:
        raise DocumentError("response is missing the 'candidates' array")
    raw = body["candidates"]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise DocumentError("'candidates' must be a non-empty array")
    pairs = []
    for entry in raw:
        try:
            name, prob = entry
            name, prob = str(name), float(prob)
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"malformed candidate entry {entry!r}") from exc
        if not name:
            raise DocumentError("candidate names must be non-empty")
        if prob < 0:
            raise DocumentError(f"negative probability for '{name}'")
        pairs.append((name, prob))
    total = sum(p for _, p in pairs)
    if not 0.99 <= total <= 1.01:
        raise DocumentError(f"candidate probabilities sum to {total}, outside [0.99, 1.01]")
    return [(name, p / total) for name, p in pairs]


def normalized_entropy(candidates) -> float:
    """Shannon entropy of the distribution, normalized by log(count)."""
    probs = [p for _, p in candidates if p > 0]
    if len(candidates) < 2:
        return 0.0
    h = -sum(p * math.log(p) for p in probs)
    return min(h / math.log(len(candidates)), 1.0)


def _context_from_candidates(candidates, luminance, complexity) -> VisualContext:
    ordered = tuple(sorted(candidates, key=lambda item: (-item[1], item[0])))
    return VisualContext(
        luminance=float(luminance),
        complexity=float(complexity),
        vlm_entropy=normalized_entropy(ordered),
        candidates=ordered,
    )


def _resolve_scalar(name: str, hints, entry) -> float:
    if hints and name in hints:
        return float(hints[name])
    if entry and name in entry:
        return float(entry[name])
    return DEFAULT_SCALAR


class MockProvider:
    """Pure fixture lookup: the same query always yields the same context."""

    def __init__(self, config: ProviderConfig):
        self.config = config
        self._fixtures = read_document(config.fixture_path)

    def propose(self, query: VisualQuery) -> VisualContext:
        entry = self._fixtures.get(query.image_ref)
        if entry is None:
            raise ProviderError(f"no fixture entry for image_ref '{query.image_ref}'")
        try:
            candidates = parse_response({"candidates": entry["candidates"]})
        except (KeyError, DocumentError) as exc:
            raise ProviderError(f"fixture entry for '{query.image_ref}' is invalid: {exc}") from exc
        return _context_from_candidates(
            candidates,
            _resolve_scalar("luminance", query.scene_hints, entry),
            _resolve_scalar("complexity", query.scene_hints, entry),
        )


class HttpProvider:
    """Single-POST JSON adapter with a hard timeout."""

    def __init__(self, config: ProviderConfig):
        self.config = config

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        env = self.config.auth_token_env_name
        if env:
            token = os.environ.get(env)
            if not token:
                raise ProviderError(f"auth token environment variable '{env}' is not set")
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def propose(self, query: VisualQuery) -> VisualContext:
        try:
            image_bytes = Path(query.image_ref).read_bytes()
        except OSError as exc:
            raise ProviderError(f"cannot read image '{query.image_ref}': {exc}") from exc
        payload = {
            "prompt": query.prompt_text,
            "image_base64": base64.b64encode(image_bytes).decode("ascii"),
        }
        data = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(self.config.endpoint_url, data, self._headers())
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout_ms / 1000.0) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:
            raise ProviderError(f"provider returned HTTP {exc.code}") from exc
        except (OSError, http.client.HTTPException) as exc:  # URLError, TimeoutError too
            reason = getattr(exc, "reason", exc)
            if isinstance(reason, TimeoutError):
                raise ProviderError(f"provider timed out after {self.config.timeout_ms} ms") from exc
            raise ProviderError(f"transport failure: {reason}") from exc
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise ProviderError("provider returned a non-JSON body") from exc
        try:
            candidates = parse_response(body)
        except DocumentError as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc
        return _context_from_candidates(
            candidates,
            _resolve_scalar("luminance", query.scene_hints, body),
            _resolve_scalar("complexity", query.scene_hints, body),
        )


def propose(query: VisualQuery, config: ProviderConfig) -> VisualContext:
    """One-shot proposal from the provider the config names."""
    provider = MockProvider(config) if config.mode == "mock" else HttpProvider(config)
    return provider.propose(query)
