"""Version retention: keep the registry and the store from growing forever.

Every automatic refresh registers a model version, and every append
publishes store version metadata — both unbounded on a long-lived service.
The :class:`RetentionPolicy` runs after each successful tune and applies two
bounded windows:

* :meth:`ModelRegistry.prune` keeps the newest ``keep_model_versions``
  registry versions of the dataset, never touching the manifest's latest or
  the version the service currently serves;
* :meth:`ColumnStore.trim_versions` drops per-version store metadata no
  live :class:`~repro.data.Snapshot` can name anymore.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import LifecyclePolicy

__all__ = ["RetentionReport", "RetentionPolicy"]


@dataclass(frozen=True)
class RetentionReport:
    """What one retention sweep removed."""

    pruned_model_versions: tuple[str, ...]
    trimmed_store_versions: int

    @property
    def removed_anything(self) -> bool:
        return bool(self.pruned_model_versions) or self.trimmed_store_versions > 0


class RetentionPolicy:
    """Applies the policy's retention windows to a service's registry/store."""

    def __init__(self, policy: LifecyclePolicy | None = None) -> None:
        self.policy = policy or LifecyclePolicy()

    def apply(self, service) -> RetentionReport:
        """One sweep over the service's registry and store."""
        policy = self.policy
        pruned: tuple[str, ...] = ()
        if (policy.keep_model_versions is not None
                and service.registry is not None):
            protect = tuple(version for version in (service.model_version,)
                            if version is not None)
            pruned = tuple(service.registry.prune(
                service.dataset, keep=policy.keep_model_versions,
                protect=protect))
        trimmed = 0
        if service.store is not None:
            # The served data_version is held as a plain int (a registry
            # load carries no Snapshot), which the store's weak-reference
            # liveness tracking cannot see — pin it explicitly so staleness
            # against the served version never degrades to everything-new.
            trimmed = service.store.trim_versions(before=service.data_version)
        return RetentionReport(pruned_model_versions=pruned,
                               trimmed_store_versions=trimmed)
