"""Schema-validated topology snapshot loaders (CSV and JSON).

Real PCN experiments start from crawled snapshots — Lightning gossip
dumps exported as ``src,dst,capacity`` CSVs, Ripple credit-network crawls
with per-direction balances.  These loaders turn such files into a
:class:`~repro.network.graph.ChannelGraph`, validating every row; node
ids are canonicalized at load and interned onto the compact CSR fast
path (:meth:`ChannelGraph.compact`) on first route, so a loaded
topology routes exactly as fast as a generated one.

Supported schemas
-----------------
CSV (header required, extra columns ignored):

* **Lightning-style**: ``src,dst,capacity`` — one row per channel, total
  capacity split evenly across directions (the paper's preprocessing for
  balance-unknown crawls).
* **Ripple-style**: ``src,dst,balance_src,balance_dst`` — per-direction
  credit balances, kept as given.

Either CSV schema may add the optional fee columns ``fee_base_src``,
``fee_rate_src``, ``fee_base_dst``, ``fee_rate_dst`` (empty cells mean
0): ``*_src`` prices the ``src -> dst`` direction, ``*_dst`` the
reverse.  A non-default policy on any direction flips the loaded graph
into policy-aware (BOLT-compounded) routing; all-zero fee cells load
exactly like a fee-free snapshot, so existing files and their results
are untouched.

JSON: an object ``{"format": "repro-snapshot-v1", "channels": [...]}``
where each channel object carries ``src``/``dst`` plus either
``capacity`` or ``balance_src``/``balance_dst`` (the two CSV schemas,
row by row).  A channel object may also carry ``policy_src`` /
``policy_dst`` dicts with any of the :class:`ChannelPolicy` fields
(``base_fee``, ``fee_rate``, ``cltv_delta``, ``htlc_min``,
``htlc_max``) for the corresponding direction.  ``cltv_delta``,
``htlc_min`` and ``htlc_max`` are parsed, validated and kept on the
records, but no router or engine enforces them.

Node ids may mix integers and numeric strings across rows (crawls often
do); digit-only ids are canonicalized to ``int`` so ``7`` and ``"7"``
name the same node.  Duplicate channels are an error by default —
``on_duplicate="merge"`` sums their funds, ``"skip"`` keeps the first.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.network.channel import NodeId
from repro.network.fees import DEFAULT_POLICY, ChannelPolicy
from repro.network.graph import ChannelGraph
from repro.scenarios.registry import ScenarioError

__all__ = [
    "SnapshotError",
    "load_snapshot",
    "load_snapshot_csv",
    "load_snapshot_json",
]

_DUPLICATE_POLICIES = ("error", "merge", "skip")


class SnapshotError(ScenarioError):
    """A snapshot file failed schema validation."""


def _normalize_node_id(raw: object, where: str) -> NodeId:
    """Canonicalize one node id: digit strings become ints.

    Crawled snapshots routinely mix ``7`` and ``"7"`` (JSON re-exports,
    spreadsheet round-trips); canonicalizing keeps them one node instead
    of two disconnected ones.
    """
    if isinstance(raw, bool) or raw is None:
        raise SnapshotError(f"{where}: invalid node id {raw!r}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        text = raw.strip()
        if not text:
            raise SnapshotError(f"{where}: empty node id")
        stripped = text[1:] if text[0] in "+-" else text
        # isascii() guards against Unicode digits (e.g. superscripts)
        # that isdigit() accepts but int() rejects.
        if stripped.isascii() and stripped.isdigit():
            return int(text)
        return text
    raise SnapshotError(f"{where}: invalid node id {raw!r}")


def _parse_balance(raw: object, column: str, where: str) -> float:
    try:
        value = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise SnapshotError(
            f"{where}: {column} must be a number, got {raw!r}"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise SnapshotError(f"{where}: {column} must be finite, got {raw!r}")
    if value < 0:
        raise SnapshotError(f"{where}: negative {column} {value!r}")
    return value


class _SnapshotBuilder:
    """Accumulates validated channel rows, applying the duplicate policy."""

    def __init__(self, on_duplicate: str, source: str) -> None:
        if on_duplicate not in _DUPLICATE_POLICIES:
            raise SnapshotError(
                f"on_duplicate must be one of {_DUPLICATE_POLICIES}, "
                f"got {on_duplicate!r}"
            )
        self._on_duplicate = on_duplicate
        self._source = source
        #: canonical (min, max) key -> [a, b, balance_a, balance_b]
        self._channels: dict[tuple, list] = {}
        #: directed (src, dst) -> ChannelPolicy; first occurrence wins
        #: under "merge"/"skip" (summing fee schedules is meaningless).
        self._policies: dict[tuple, ChannelPolicy] = {}

    def add(
        self,
        a: NodeId,
        b: NodeId,
        balance_a: float,
        balance_b: float,
        where: str,
        policy_ab: ChannelPolicy | None = None,
        policy_ba: ChannelPolicy | None = None,
    ) -> None:
        if a == b:
            raise SnapshotError(f"{where}: self-channel at node {a!r}")
        key = (min((a, b), key=repr), max((a, b), key=repr))
        existing = self._channels.get(key)
        if existing is None:
            self._channels[key] = [a, b, balance_a, balance_b]
            if policy_ab is not None:
                self._policies[(a, b)] = policy_ab
            if policy_ba is not None:
                self._policies[(b, a)] = policy_ba
            return
        if self._on_duplicate == "error":
            raise SnapshotError(f"{where}: duplicate channel {a!r}<->{b!r}")
        if self._on_duplicate == "merge":
            if existing[0] == a:
                existing[2] += balance_a
                existing[3] += balance_b
            else:
                existing[2] += balance_b
                existing[3] += balance_a
        # "skip": keep the first occurrence.

    def graph(self) -> ChannelGraph:
        if not self._channels:
            raise SnapshotError(f"{self._source}: snapshot has no channels")
        result = ChannelGraph()
        for a, b, balance_a, balance_b in self._channels.values():
            result.add_channel(a, b, balance_a, balance_b)
        for (src, dst), policy in self._policies.items():
            result.set_channel_policy(src, dst, policy)
        return result


#: Optional CSV fee columns; ``*_src`` prices src -> dst, ``*_dst`` the
#: reverse direction.
_FEE_COLUMNS = ("fee_base_src", "fee_rate_src", "fee_base_dst", "fee_rate_dst")

#: Keys accepted in a JSON ``policy_src``/``policy_dst`` object.
_POLICY_KEYS = ("base_fee", "fee_rate", "cltv_delta", "htlc_min", "htlc_max")


def _parse_fee(row: dict, column: str, where: str) -> float:
    """One optional fee cell: missing or empty means 0 (unpriced)."""
    raw = row.get(column)
    if raw is None or (isinstance(raw, str) and not raw.strip()):
        return 0.0
    return _parse_balance(raw, column, where)


def _row_fee_policies(
    row: dict, where: str
) -> tuple[ChannelPolicy | None, ChannelPolicy | None]:
    """The optional per-direction policies of one CSV row.

    All-zero directions return ``None`` so fee-free rows never flip the
    graph into policy-aware mode.
    """
    policies = []
    for suffix in ("src", "dst"):
        base = _parse_fee(row, f"fee_base_{suffix}", where)
        rate = _parse_fee(row, f"fee_rate_{suffix}", where)
        policy = ChannelPolicy(base_fee=base, fee_rate=rate)
        policies.append(None if policy == DEFAULT_POLICY else policy)
    return policies[0], policies[1]


def _policy_from_object(entry: object, where: str) -> ChannelPolicy | None:
    """Validate one JSON ``policy_src``/``policy_dst`` object."""
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise SnapshotError(f"{where}: policy must be an object")
    unknown = sorted(set(entry) - set(_POLICY_KEYS))
    if unknown:
        raise SnapshotError(
            f"{where}: unknown policy keys {unknown} "
            f"(accepted: {', '.join(_POLICY_KEYS)})"
        )
    try:
        policy = ChannelPolicy(**entry)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"{where}: invalid policy ({exc})") from None
    return None if policy == DEFAULT_POLICY else policy


def _row_channel(
    row: dict, has_capacity: bool, where: str
) -> tuple[NodeId, NodeId, float, float]:
    src = _normalize_node_id(row.get("src"), where)
    dst = _normalize_node_id(row.get("dst"), where)
    if has_capacity:
        half = _parse_balance(row.get("capacity"), "capacity", where) / 2.0
        return src, dst, half, half
    return (
        src,
        dst,
        _parse_balance(row.get("balance_src"), "balance_src", where),
        _parse_balance(row.get("balance_dst"), "balance_dst", where),
    )


def _schema_of(columns, where: str) -> bool:
    """``True`` for the capacity schema, ``False`` for per-direction."""
    present = set(columns or ())
    if not {"src", "dst"} <= present:
        raise SnapshotError(
            f"{where}: header must name 'src' and 'dst' columns, "
            f"got {sorted(present) or 'nothing'}"
        )
    if "capacity" in present:
        return True
    if {"balance_src", "balance_dst"} <= present:
        return False
    raise SnapshotError(
        f"{where}: need either a 'capacity' column or both "
        "'balance_src' and 'balance_dst'"
    )


def load_snapshot_csv(
    path: str | Path, on_duplicate: str = "error"
) -> ChannelGraph:
    """Load a CSV topology snapshot (see module docstring for schemas).

    The header row picks the schema; every data row is validated (node
    ids, numeric/finite/non-negative funds, no self-channels).
    """
    path = Path(path)
    builder = _SnapshotBuilder(on_duplicate, path.name)
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            has_capacity = _schema_of(reader.fieldnames, path.name)
            has_fees = bool(set(reader.fieldnames or ()) & set(_FEE_COLUMNS))
            for line_number, row in enumerate(reader, start=2):
                where = f"{path.name}:{line_number}"
                if None in row:
                    raise SnapshotError(
                        f"{where}: more cells than header columns"
                    )
                policy_ab = policy_ba = None
                if has_fees:
                    policy_ab, policy_ba = _row_fee_policies(row, where)
                builder.add(
                    *_row_channel(row, has_capacity, where),
                    where,
                    policy_ab=policy_ab,
                    policy_ba=policy_ba,
                )
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot ({exc})") from exc
    return builder.graph()


def load_snapshot_json(
    path: str | Path, on_duplicate: str = "error"
) -> ChannelGraph:
    """Load a JSON topology snapshot (``repro-snapshot-v1``).

    Validates the envelope (``format`` tag, ``channels`` list) and each
    channel object with the same rules as the CSV loader; channels may
    carry ``capacity`` or ``balance_src``/``balance_dst`` per object.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{path.name}: invalid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise SnapshotError(f"{path.name}: top level must be an object")
    if document.get("format") != "repro-snapshot-v1":
        raise SnapshotError(
            f"{path.name}: expected format 'repro-snapshot-v1', "
            f"got {document.get('format')!r}"
        )
    channels = document.get("channels")
    if not isinstance(channels, list):
        raise SnapshotError(f"{path.name}: 'channels' must be a list")
    builder = _SnapshotBuilder(on_duplicate, path.name)
    for position, entry in enumerate(channels):
        where = f"{path.name}:channels[{position}]"
        if not isinstance(entry, dict):
            raise SnapshotError(f"{where}: channel must be an object")
        has_capacity = "capacity" in entry
        if not has_capacity and not (
            "balance_src" in entry and "balance_dst" in entry
        ):
            raise SnapshotError(
                f"{where}: need 'capacity' or 'balance_src'/'balance_dst'"
            )
        builder.add(
            *_row_channel(entry, has_capacity, where),
            where,
            policy_ab=_policy_from_object(entry.get("policy_src"), where),
            policy_ba=_policy_from_object(entry.get("policy_dst"), where),
        )
    return builder.graph()


def load_snapshot(path: str | Path, on_duplicate: str = "error") -> ChannelGraph:
    """Dispatch on file extension: ``.csv`` or ``.json``."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return load_snapshot_csv(path, on_duplicate=on_duplicate)
    if path.suffix.lower() == ".json":
        return load_snapshot_json(path, on_duplicate=on_duplicate)
    raise SnapshotError(
        f"{path.name}: unsupported snapshot extension {path.suffix!r} "
        "(expected .csv or .json)"
    )
