"""Exception types shared across the package."""


class MemFabricError(Exception):
    """Base class for every error raised by this package."""


class UnknownPrincipal(MemFabricError):
    """A user, agent, or resource id is not registered in the directory."""


class DuplicateEdge(MemFabricError):
    """Grant of an edge that is already present at the given tick."""


class EdgeNotPresent(MemFabricError):
    """Revoke of an edge that is absent at the given tick."""


class NonMonotonicTimestamp(MemFabricError):
    """An event or record was appended with a tick behind the log head."""


class UnreachableTarget(MemFabricError):
    """A schedule phase target cannot be reached from the current edge count."""


class DuplicateId(MemFabricError):
    """A fragment with this id is already stored."""


class DimensionMismatch(MemFabricError):
    """Vector dimension differs from the configured store/embedder dimension."""


class InvalidFragment(MemFabricError):
    """A fragment violates a structural invariant (empty key/value, bad norm)."""


class NonFiniteVector(MemFabricError):
    """A fragment or query embedding holds a NaN or infinite component."""


class UnknownPrincipalInProvenance(MemFabricError):
    """Fragment provenance references a principal outside the directory."""


class UnknownFragment(MemFabricError):
    """No fragment with the requested id exists."""


class EmptyText(MemFabricError):
    """Embedding input must be a non-empty string."""


class RemoteUnavailable(MemFabricError):
    """A remote backend (embedder, transformer, agent) could not be reached
    or returned a malformed payload."""


class AmbiguousBinding(MemFabricError):
    """Two policy bindings match at the same specificity rank."""


class CoordinatorProtocolViolation(MemFabricError):
    """The coordinator emitted a malformed message or named an agent the
    user cannot invoke, and retries were exhausted."""


class ResourceNotPermitted(MemFabricError):
    """An agent attempted to invoke a resource outside its granted set."""


class InsufficientQueries(MemFabricError):
    """The workload generator was given no queries to assign."""


class EmptyWindow(MemFabricError):
    """Metrics were requested over a log slice containing no episodes."""


class ConfigError(MemFabricError):
    """A scenario configuration document failed validation."""
