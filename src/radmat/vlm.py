"""Visual branch providers: a deterministic fixture lookup and a generic
HTTP-JSON adapter for live models.

Each provider only fetches its answer for an image reference: the
fixture entry, or the decoded HTTP body.  `propose` turns either answer
into a VisualContext.  The candidate distribution's normalized Shannon
entropy becomes the epistemic uncertainty term; luminance/complexity come
from the answer (default 0.5 when it does not supply them).

HTTP contract: POST {"prompt": PROMPT, "image_base64": ...} to the endpoint;
the answer is an object with a "candidates" array of [name, probability]
pairs (renormalized when the sum is within 1 percent of one, rejected
otherwise) and optionally "luminance" and "complexity"; any other key
raises ProviderError (exit 8).  Auth tokens are only ever read from the
environment variable named in the provider config.  The standard library's
HTTP client is imported at the first HTTP request, not with this module.
"""

import base64
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .docio import check_keys, from_document, malformed, read_document, typed
from .errors import DocumentError, DomainError, ProviderError
from .fusion import VisualContext

PROMPT = "What is this object and what is the material?"
DEFAULT_SCALAR = 0.5
# provider-document keys of earlier versions, read and ignored
_LEGACY_KEYS = ("max_in_flight",)


@dataclass(frozen=True)
class VisualQuery:
    """The image a visual provider is asked about."""
    image_ref: str

    def __post_init__(self):
        if not self.image_ref:
            raise DomainError("image_ref must not be empty")


@dataclass(frozen=True)
class ProviderConfig:
    """Which visual provider to ask: a mock fixture file or an HTTP endpoint."""
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


def parse_response(body: dict) -> list:
    """An answer's candidates as a (name, prob) list renormalized to sum to 1.

    A malformed answer raises KeyError, TypeError or ValueError (DomainError
    for an empty list or a sum off one by over 1 %; VisualContext checks the rest).
    """
    pairs = typed(tuple, body["candidates"], "candidates")
    if not pairs:
        raise DomainError("'candidates' must be a non-empty array")
    total = sum(p for _, p in pairs)
    if not 0.99 <= total <= 1.01:
        raise DomainError(f"candidate probabilities sum to {total}, outside [0.99, 1.01]")
    return [(name, p / total) for name, p in pairs]


def normalized_entropy(candidates) -> float:
    """Shannon entropy of the distribution, normalized by log(count)."""
    probs = [p for _, p in candidates if p > 0]
    if len(candidates) < 2:
        return 0.0
    h = -sum(p * math.log(p) for p in probs)
    return min(h / math.log(len(candidates)), 1.0)


def _fixture_answer(query: VisualQuery, config: ProviderConfig):
    """The fixture entry for the query's image: a pure lookup."""
    entry = read_document(config.fixture_path).get(query.image_ref)
    if entry is None:
        raise ProviderError(f"no fixture entry for image_ref '{query.image_ref}'")
    return entry


def _headers(config: ProviderConfig) -> dict:
    headers = {"Content-Type": "application/json"}
    env = config.auth_token_env_name
    if env:
        token = os.environ.get(env)
        if not token:
            raise ProviderError(f"auth token environment variable '{env}' is not set")
        headers["Authorization"] = f"Bearer {token}"
    return headers


def _http_answer(query: VisualQuery, config: ProviderConfig):
    """The decoded JSON body of one POST, with a hard timeout."""
    import http.client
    import urllib.error
    import urllib.request
    try:
        image_bytes = Path(query.image_ref).read_bytes()
    except OSError as exc:
        raise ProviderError(f"cannot read image '{query.image_ref}': {exc}") from exc
    payload = {
        "prompt": PROMPT,
        "image_base64": base64.b64encode(image_bytes).decode("ascii"),
    }
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(config.endpoint_url, data, _headers(config))
    try:
        with urllib.request.urlopen(request, timeout=config.timeout_ms / 1000.0) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        raise ProviderError(f"provider returned HTTP {exc.code}") from exc
    except (OSError, http.client.HTTPException) as exc:  # URLError, TimeoutError too
        reason = getattr(exc, "reason", exc)
        if isinstance(reason, TimeoutError):
            raise ProviderError(f"provider timed out after {config.timeout_ms} ms") from exc
        raise ProviderError(f"transport failure: {reason}") from exc
    with malformed(ProviderError, "provider returned a non-JSON body"):
        return json.loads(raw)


def propose(query: VisualQuery, config: ProviderConfig) -> VisualContext:
    """One-shot proposal from the provider the config names.

    Every fault in the provider's answer, its candidates, scalars and their
    ranges alike, raises ProviderError.
    """
    fetch = _fixture_answer if config.mode == "mock" else _http_answer
    answer = fetch(query, config)
    with malformed(ProviderError, f"invalid provider answer for '{query.image_ref}'"):
        check_keys(answer, "provider_answer", ("candidates", "luminance", "complexity"))
        ordered = tuple(sorted(parse_response(answer), key=lambda item: (-item[1], item[0])))
        return VisualContext(
            luminance=typed(float, answer.get("luminance", DEFAULT_SCALAR), "luminance"),
            complexity=typed(float, answer.get("complexity", DEFAULT_SCALAR), "complexity"),
            vlm_entropy=normalized_entropy(ordered),
            candidates=ordered,
        )
