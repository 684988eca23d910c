"""Model registry: persist trained Duet models together with what it takes
to serve them.

A registry directory holds one sub-directory per ``(dataset, version)`` pair
containing the model parameters (``model.npz``, via
:mod:`repro.nn.serialization`), the table schema (``schema.npz``: per-column
sorted distinct values plus the row count — everything predicate translation
and selectivity scaling need, without shipping the data itself), and the
:class:`~repro.core.DuetConfig` the model was built with.  A top-level
``manifest.json`` indexes every entry and tracks the latest version per
dataset, so a service can be started with nothing but a registry path and a
dataset name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.config import DuetConfig, MPSNConfig
from ..core.estimator import DuetEstimator
from ..core.model import DuetModel
from ..data.column import Column
from ..data.table import Table
from ..nn import PlanOptions
from ..nn.serialization import load_module, npz_path, save_module

__all__ = ["TableSchema", "SchemaTable", "RegistryEntry", "ModelRegistry",
           "QuarantinedVersion", "RecoveryReport"]

_MODEL_FILE = "model.npz"
_SCHEMA_FILE = "schema.npz"
_MANIFEST_FILE = "manifest.json"
_QUARANTINE_DIR = ".quarantine"
_VERSION_PATTERN = re.compile(r"^v(\d+)$")
#: model metadata marking MADE parameters saved with units in degree order;
#: archives without it hold them in draw order and are relabeled on load
_MADE_UNITS = "degree-ordered"


def _file_checksum(path: Path) -> str:
    """sha256 hex digest of ``path``'s contents."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class SchemaTable(Table):
    """A data-less stand-in for a table: real domains, no tuples.

    Serving needs each column's sorted distinct values (to translate raw
    predicate literals into code intervals) and the row count (to scale
    selectivities into cardinalities) but not the tuples themselves, so a
    reloaded model carries this lightweight table instead of the data.
    """

    def __init__(self, name: str, columns, num_rows: int) -> None:
        super().__init__(name, columns)
        self._num_rows = int(num_rows)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def _no_data(self) -> RuntimeError:
        return RuntimeError(
            f"schema-only table {self.name!r} carries no tuples; use the data "
            f"table for execution, sampling, or training")

    def code_matrix(self, rows=None) -> np.ndarray:
        raise self._no_data()

    def row(self, index: int) -> list:
        raise self._no_data()

    def sample_rows(self, count: int, rng=None) -> np.ndarray:
        raise self._no_data()


@dataclass(frozen=True)
class TableSchema:
    """The serving-relevant schema of a table: domains plus row count."""

    name: str
    num_rows: int
    column_names: tuple[str, ...]
    distinct_values: tuple[np.ndarray, ...]

    @classmethod
    def from_table(cls, table: Table) -> "TableSchema":
        return cls(
            name=table.name,
            num_rows=table.num_rows,
            column_names=tuple(table.column_names),
            distinct_values=tuple(column.distinct_values for column in table.columns),
        )

    def to_table(self) -> SchemaTable:
        """Rebuild a :class:`SchemaTable` usable by codec and estimator."""
        columns = [
            Column(name=column_name, distinct_values=values,
                   codes=np.empty(0, dtype=np.int64))
            for column_name, values in zip(self.column_names, self.distinct_values)
        ]
        return SchemaTable(self.name, columns, self.num_rows)

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"name": self.name, "num_rows": self.num_rows,
                  "column_names": list(self.column_names)}
        payload = {f"column{index}": values
                   for index, values in enumerate(self.distinct_values)}
        payload["__header__"] = np.array(json.dumps(header))
        target = npz_path(path)
        # Write-then-rename, matching save_module: a crash mid-write never
        # leaves a truncated schema under the final name.
        scratch = target.with_name(target.name + ".tmp.npz")
        try:
            np.savez(scratch, **payload)
            os.replace(scratch, target)
        finally:
            scratch.unlink(missing_ok=True)
        return target

    @classmethod
    def load(cls, path: str | Path) -> "TableSchema":
        with np.load(Path(path), allow_pickle=False) as archive:
            header = json.loads(str(archive["__header__"]))
            values = tuple(archive[f"column{index}"]
                           for index in range(len(header["column_names"])))
        return cls(name=header["name"], num_rows=int(header["num_rows"]),
                   column_names=tuple(header["column_names"]),
                   distinct_values=values)


@dataclass(frozen=True)
class RegistryEntry:
    """One saved ``(dataset, version)`` model as recorded in the manifest."""

    dataset: str
    version: str
    directory: Path
    created_at: float
    num_parameters: int
    metadata: dict
    #: store ``data_version`` the model was trained on (None for models of
    #: static tables that never passed through a ColumnStore)
    data_version: int | None = None

    @property
    def model_path(self) -> Path:
        return self.directory / _MODEL_FILE

    @property
    def schema_path(self) -> Path:
        return self.directory / _SCHEMA_FILE


@dataclass(frozen=True)
class QuarantinedVersion:
    """One ``(dataset, version)`` recovery set aside instead of serving."""

    dataset: str
    version: str
    reason: str          #: missing_model | missing_schema | checksum_mismatch | orphan
    moved_to: Path | None


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`ModelRegistry.recover` pass found and fixed."""

    checked: int                                    #: manifest entries examined
    quarantined: tuple[QuarantinedVersion, ...]     #: entries/dirs set aside
    adopted: tuple[tuple[str, str], ...]            #: versions re-indexed after a lost manifest
    manifest_rebuilt: bool                          #: manifest was unreadable and rebuilt from disk

    @property
    def clean(self) -> bool:
        return not self.quarantined and not self.manifest_rebuilt


def _config_to_dict(config: DuetConfig) -> dict:
    payload = dataclasses.asdict(config)
    payload["hidden_sizes"] = list(config.hidden_sizes)
    return payload


def _config_from_dict(payload: dict) -> DuetConfig:
    payload = dict(payload)
    payload["hidden_sizes"] = tuple(payload["hidden_sizes"])
    payload["mpsn"] = MPSNConfig(**payload["mpsn"])
    return DuetConfig(**payload)


class ModelRegistry:
    """Save/load trained Duet models keyed by ``(dataset, version)``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Serialises manifest read-modify-write cycles (save vs prune): the
        # lifecycle controller prunes from its daemon thread while serving
        # threads may be saving refreshed models into the same registry.
        self._manifest_lock = threading.Lock()
        #: optional fault-injection hook, called as ``hook(site, **context)``
        #: at the I/O sites ``registry.save`` (before any file is written)
        #: and ``registry.manifest`` (checkpoint written, manifest not yet)
        #: — the seam :class:`~repro.lifecycle.FaultInjector` threads
        #: through; ``None`` (the default) costs one attribute read.
        self.fault_hook = None

    def _fault(self, site: str, **context) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(site, **context)

    # ------------------------------------------------------------------
    # Manifest bookkeeping
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_FILE

    def _read_manifest(self) -> dict:
        if not self.manifest_path.exists():
            return {"datasets": {}}
        return json.loads(self.manifest_path.read_text())

    def _write_manifest(self, manifest: dict) -> None:
        # Write-then-rename keeps the manifest readable even if the process
        # dies mid-save.
        scratch = self.manifest_path.with_name(_MANIFEST_FILE + ".tmp")
        scratch.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        scratch.replace(self.manifest_path)

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, model: DuetModel, dataset: str, version: str | None = None,
             metadata: dict | None = None,
             compile_options: PlanOptions | None = None,
             data_version: int | None = None) -> RegistryEntry:
        """Persist ``model`` under ``(dataset, version)`` and index it.

        ``version`` defaults to the next ``v<N>`` after the dataset's
        current versions.  Saving an existing version overwrites it.
        ``compile_options`` records how the model should be lowered for
        serving; :meth:`load_estimator` rebuilds the compiled plan from
        them, so a reloaded estimator serves through the same fast path
        (and dtype) the model was registered with.  ``data_version`` pins
        the store version the model was trained on (defaulting to the
        model table's own ``data_version`` when it is a
        :class:`~repro.data.Snapshot`); the serving layer compares it
        against the live store to report staleness.
        """
        with self._manifest_lock:
            self._fault("registry.save", dataset=dataset)
            manifest = self._read_manifest()
            entry = manifest["datasets"].setdefault(dataset,
                                                    {"latest": None, "versions": {}})
            version = version or self._next_version(entry["versions"])
            directory = self.root / dataset / version
            directory.mkdir(parents=True, exist_ok=True)
            if data_version is None:
                data_version = getattr(model.table, "data_version", None)

            model_metadata = {"config": _config_to_dict(model.config),
                              "dataset": dataset, "version": version,
                              "data_version": data_version,
                              "made_units": _MADE_UNITS}
            if compile_options is not None:
                model_metadata["compile_options"] = compile_options.to_dict()
            save_module(model, directory / _MODEL_FILE, metadata=model_metadata)
            TableSchema.from_table(model.table).save(directory / _SCHEMA_FILE)
            # Checkpoint files are on disk; a crash between here and the
            # manifest rewrite leaves an uncommitted orphan directory that
            # recover() quarantines on the next start.
            self._fault("registry.manifest", dataset=dataset, version=version)

            record = {
                "created_at": time.time(),
                "num_parameters": model.num_parameters(),
                "metadata": metadata or {},
                "data_version": data_version,
                "checksums": {
                    _MODEL_FILE: _file_checksum(directory / _MODEL_FILE),
                    _SCHEMA_FILE: _file_checksum(directory / _SCHEMA_FILE),
                },
            }
            entry["versions"][version] = record
            entry["latest"] = version
            self._write_manifest(manifest)
            return RegistryEntry(dataset=dataset, version=version, directory=directory,
                                 created_at=record["created_at"],
                                 num_parameters=record["num_parameters"],
                                 metadata=record["metadata"],
                                 data_version=data_version)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self, dataset: str, keep: int = 3,
              protect: Sequence[str] = ()) -> list[str]:
        """Trim ``dataset`` down to its ``keep`` newest versions.

        Every refresh appends a version, so a long-running service grows the
        registry without bound; retention keeps the ``keep`` most recent
        versions (by creation time, version name breaking ties) and deletes
        the rest — manifest records first, then the on-disk directories.

        The manifest's ``latest`` version and every version in ``protect``
        (the serving layer passes the version it currently serves, which
        after a concurrent save may no longer be the latest) are *never*
        deleted, whatever ``keep`` says.  After pruning, the manifest is
        checked for consistency: the surviving ``latest`` must still have
        both its record and its files, otherwise the prune is aborted before
        the manifest is rewritten.

        Returns the version names removed (may be empty).
        """
        if keep < 1:
            raise ValueError("prune must keep at least one version")
        with self._manifest_lock:
            manifest = self._read_manifest()
            entry = manifest["datasets"].get(dataset)
            if entry is None:
                return []
            versions = entry["versions"]

            def recency(name: str) -> tuple:
                # created_at first; same-instant saves (fast refresh loops)
                # are broken by the numeric version suffix, not
                # lexicographically.
                match = _VERSION_PATTERN.match(name)
                return (versions[name]["created_at"],
                        int(match.group(1)) if match else -1, name)

            ordered = sorted(versions, key=recency, reverse=True)
            keepers = set(ordered[:keep])
            keepers.update(name for name in protect if name in versions)
            if entry["latest"]:
                keepers.add(entry["latest"])
            doomed = [name for name in ordered if name not in keepers]
            if not doomed:
                return []
            # Manifest-consistency check before touching anything: the
            # served/latest survivor must actually exist on disk.
            latest = entry["latest"]
            if latest and not (self.root / dataset / latest / _MODEL_FILE).exists():
                raise RuntimeError(
                    f"registry manifest names latest {latest!r} for {dataset!r} "
                    f"but its files are missing; refusing to prune an "
                    f"inconsistent registry")
            for name in doomed:
                del versions[name]
            self._write_manifest(manifest)
        for name in doomed:
            shutil.rmtree(self.root / dataset / name, ignore_errors=True)
        return doomed

    def discard(self, dataset: str, version: str) -> bool:
        """Remove one registered version: manifest record first, then files.

        The rollback half of a failed swap: a candidate that was registered
        but could not be installed must not linger as a never-served
        "latest" that retention then protects forever.  ``latest`` is
        re-pointed at the newest surviving version (by creation time).
        Returns ``False`` when ``(dataset, version)`` was not registered.
        """
        with self._manifest_lock:
            manifest = self._read_manifest()
            entry = manifest["datasets"].get(dataset)
            if entry is None or version not in entry["versions"]:
                return False
            del entry["versions"][version]
            if entry["latest"] == version:
                entry["latest"] = self._newest(entry["versions"])
            self._write_manifest(manifest)
        shutil.rmtree(self.root / dataset / version, ignore_errors=True)
        return True

    @staticmethod
    def _next_version(versions: dict) -> str:
        numbers = [int(match.group(1)) for name in versions
                   if (match := _VERSION_PATTERN.match(name))]
        return f"v{max(numbers, default=0) + 1}"

    @staticmethod
    def _newest(versions: dict) -> str | None:
        """Most recently created version name, or ``None`` when empty."""

        def recency(name: str) -> tuple:
            match = _VERSION_PATTERN.match(name)
            return (versions[name]["created_at"],
                    int(match.group(1)) if match else -1, name)

        return max(versions, key=recency, default=None)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _verify_record(self, dataset: str, version: str, record: dict) -> str | None:
        """Why ``(dataset, version)`` cannot be served; ``None`` when it can."""
        directory = self.root / dataset / version
        if not (directory / _MODEL_FILE).exists():
            return "missing_model"
        if not (directory / _SCHEMA_FILE).exists():
            return "missing_schema"
        for filename, expected in (record.get("checksums") or {}).items():
            if _file_checksum(directory / filename) != expected:
                return "checksum_mismatch"
        return None

    def _quarantine_files(self, dataset: str, version: str) -> Path | None:
        """Move ``(dataset, version)``'s directory under the quarantine area."""
        source = self.root / dataset / version
        if not source.exists():
            return None
        pen = self.root / _QUARANTINE_DIR
        pen.mkdir(parents=True, exist_ok=True)
        target = pen / f"{dataset}-{version}"
        suffix = 1
        while target.exists():
            suffix += 1
            target = pen / f"{dataset}-{version}-{suffix}"
        shutil.move(str(source), str(target))
        return target

    def _adopt_from_disk(self, manifest: dict) -> list[tuple[str, str]]:
        """Re-index loadable version directories into a rebuilt manifest."""
        adopted: list[tuple[str, str]] = []
        for dataset_dir in sorted(self.root.iterdir()):
            if not dataset_dir.is_dir() or dataset_dir.name == _QUARANTINE_DIR:
                continue
            versions: dict = {}
            for version_dir in sorted(dataset_dir.iterdir()):
                model_path = version_dir / _MODEL_FILE
                if not model_path.exists() or not (version_dir / _SCHEMA_FILE).exists():
                    continue
                try:
                    metadata = load_metadata(model_path)
                except Exception:  # noqa: BLE001 — unreadable archive: skip
                    continue
                versions[version_dir.name] = {
                    "created_at": model_path.stat().st_mtime,
                    "num_parameters": 0,
                    "metadata": {"recovered": True},
                    "data_version": metadata.get("data_version"),
                    "checksums": {
                        _MODEL_FILE: _file_checksum(model_path),
                        _SCHEMA_FILE: _file_checksum(version_dir / _SCHEMA_FILE),
                    },
                }
                adopted.append((dataset_dir.name, version_dir.name))
            if versions:
                manifest["datasets"][dataset_dir.name] = {
                    "latest": self._newest(versions), "versions": versions}
        return adopted

    def recover(self) -> RecoveryReport:
        """Startup consistency pass: quarantine what a crash left behind.

        Three failure shapes are repaired, none of them fatally:

        * a manifest entry whose checkpoint files are missing or fail their
          recorded checksums (torn write below the filesystem, a crash
          mid-prune, external corruption) is *quarantined* — dropped from
          the manifest, its files moved under ``.quarantine/``, and
          ``latest`` re-pointed at the newest surviving version — instead
          of poisoning every later :meth:`load_estimator`;
        * a version directory the manifest never committed (crash between
          checkpoint write and manifest rewrite) is quarantined as an
          uncommitted orphan — the manifest is the source of truth;
        * an unreadable ``manifest.json`` is set aside and rebuilt by
          re-indexing every loadable version directory on disk.

        Idempotent: a clean registry is untouched and reports
        :attr:`RecoveryReport.clean`.
        """
        with self._manifest_lock:
            rebuilt = False
            try:
                manifest = self._read_manifest()
            except (json.JSONDecodeError, OSError):
                rebuilt = True
                corrupt = self.manifest_path.with_name(_MANIFEST_FILE + ".corrupt")
                os.replace(self.manifest_path, corrupt)
                manifest = {"datasets": {}}
            adopted = self._adopt_from_disk(manifest) if rebuilt else []
            quarantined: list[QuarantinedVersion] = []
            checked = 0
            for dataset, entry in manifest["datasets"].items():
                for version in list(entry["versions"]):
                    checked += 1
                    reason = self._verify_record(dataset, version,
                                                 entry["versions"][version])
                    if reason is None:
                        continue
                    del entry["versions"][version]
                    quarantined.append(QuarantinedVersion(
                        dataset=dataset, version=version, reason=reason,
                        moved_to=self._quarantine_files(dataset, version)))
                if entry["latest"] not in entry["versions"]:
                    entry["latest"] = self._newest(entry["versions"])
            # Orphan directories: checkpoints written but never committed.
            for dataset_dir in sorted(self.root.iterdir()):
                if not dataset_dir.is_dir() or dataset_dir.name == _QUARANTINE_DIR:
                    continue
                committed = manifest["datasets"].get(dataset_dir.name,
                                                     {"versions": {}})["versions"]
                for version_dir in sorted(dataset_dir.iterdir()):
                    if version_dir.is_dir() and version_dir.name not in committed:
                        quarantined.append(QuarantinedVersion(
                            dataset=dataset_dir.name, version=version_dir.name,
                            reason="orphan",
                            moved_to=self._quarantine_files(dataset_dir.name,
                                                            version_dir.name)))
            if quarantined or rebuilt:
                self._write_manifest(manifest)
            return RecoveryReport(checked=checked,
                                  quarantined=tuple(quarantined),
                                  adopted=tuple(adopted),
                                  manifest_rebuilt=rebuilt)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def _load_entry(self, entry: RegistryEntry) -> tuple[DuetModel, dict]:
        """Rebuild the saved model of ``entry``; returns ``(model, metadata)``."""
        schema = TableSchema.load(entry.schema_path)
        table = schema.to_table()
        metadata = load_metadata(entry.model_path)
        model = DuetModel(table, _config_from_dict(metadata["config"]))
        load_module(model, entry.model_path)
        if metadata.get("made_units") != _MADE_UNITS:
            model.made.order_units_by_degree()  # saved in draw order
        model.eval()
        return model, metadata

    def load_model(self, dataset: str, version: str | None = None) -> DuetModel:
        """Rebuild the saved model (schema table + config + parameters)."""
        model, _ = self._load_entry(self.entry(dataset, version))
        return model

    def compile_options(self, dataset: str, version: str | None = None
                        ) -> PlanOptions | None:
        """The persisted plan options of ``(dataset, version)``, if any."""
        entry = self.entry(dataset, version)
        payload = load_metadata(entry.model_path).get("compile_options")
        return None if payload is None else PlanOptions.from_dict(payload)

    def load_estimator(self, dataset: str, version: str | None = None) -> DuetEstimator:
        """Rebuild a ready-to-serve estimator for ``(dataset, version)``.

        When the entry was saved with ``compile_options`` the estimator
        comes back compiled — plans rebuilt from the persisted options, the
        lowered path active by default.
        """
        entry = self.entry(dataset, version)
        model, metadata = self._load_entry(entry)
        estimator = DuetEstimator(model)
        estimator.model_version = entry.version
        estimator.data_version = entry.data_version
        payload = metadata.get("compile_options")
        if payload is not None:
            estimator.compile(PlanOptions.from_dict(payload))
        return estimator

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def datasets(self) -> list[str]:
        return sorted(self._read_manifest()["datasets"])

    def versions(self, dataset: str) -> list[str]:
        entry = self._read_manifest()["datasets"].get(dataset, {"versions": {}})
        return sorted(entry["versions"])

    def latest_version(self, dataset: str) -> str:
        datasets = self._read_manifest()["datasets"]
        if dataset not in datasets or not datasets[dataset]["latest"]:
            raise KeyError(f"registry has no models for dataset {dataset!r}")
        return datasets[dataset]["latest"]

    def entry(self, dataset: str, version: str | None = None) -> RegistryEntry:
        version = version or self.latest_version(dataset)
        datasets = self._read_manifest()["datasets"]
        if dataset not in datasets or version not in datasets[dataset]["versions"]:
            raise KeyError(f"registry has no entry for ({dataset!r}, {version!r})")
        record = datasets[dataset]["versions"][version]
        return RegistryEntry(dataset=dataset, version=version,
                             directory=self.root / dataset / version,
                             created_at=record["created_at"],
                             num_parameters=record["num_parameters"],
                             metadata=record["metadata"],
                             data_version=record.get("data_version"))

    def __contains__(self, dataset: str) -> bool:
        return dataset in self._read_manifest()["datasets"]


def load_metadata(path: str | Path) -> dict:
    """Read only the JSON metadata of a ``save_module`` archive."""
    with np.load(Path(path), allow_pickle=False) as archive:
        return json.loads(str(archive["__metadata__"]))
