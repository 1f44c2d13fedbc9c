"""Simulated network, HTTP model, sanitization, and remote services."""

from .http import (
    ALLOWED_METHODS,
    ALLOWED_VERSIONS,
    HttpRequest,
    HttpResponse,
    SanitizationError,
    sanitize_request,
)
from .network import HttpService, LatencyModel, SimulatedNetwork
from .services import (
    AuthService,
    EchoService,
    LlmService,
    LogShardService,
    ObjectStoreService,
    SqlDatabaseService,
)

__all__ = [
    "ALLOWED_METHODS",
    "ALLOWED_VERSIONS",
    "HttpRequest",
    "HttpResponse",
    "SanitizationError",
    "sanitize_request",
    "HttpService",
    "LatencyModel",
    "SimulatedNetwork",
    "AuthService",
    "EchoService",
    "LlmService",
    "LogShardService",
    "ObjectStoreService",
    "SqlDatabaseService",
]
