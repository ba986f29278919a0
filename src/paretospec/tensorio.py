"""JSON tensor documents: the 1-based boundary of the package.

Document shape:

    {
      "name": "optional label",
      "order": 3,
      "dim": 2,
      "symmetric": false,
      "entries": [
        {"index": [1, 1, 2], "value": -0.666666},
        ...
      ]
    }

Indices in documents are 1-based; everything behind the parser is 0-based.
With "symmetric": true the symmetric part of the listed entries is stored.
Entries listing the same index twice are summed, with a warning.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from .tensor import Tensor, build


class DocumentError(ValueError):
    """Malformed tensor document; carries a position when one is known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class TensorDocument:
    """Parsed document, still 1-based; convert with to_tensor()."""

    order: int
    dim: int
    entries: tuple[tuple[tuple[int, ...], float], ...]
    symmetric: bool = False
    name: str | None = None

    def to_tensor(self) -> Tensor:
        zero_based = [(tuple(i - 1 for i in idx), v) for idx, v in self.entries]
        return build(self.order, self.dim, zero_based, symmetrize=self.symmetric)


def parse_document(text: str) -> TensorDocument:
    """Parse and validate a JSON tensor document.

    Raises DocumentError with line/column for syntax errors and with the
    offending entry called out for schema errors.  Duplicate index tuples
    are legal and summed, but reported through a warning.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(e.msg, line=e.lineno, column=e.colno) from None
    if not isinstance(raw, dict):
        raise DocumentError(f"document must be a JSON object, got {type(raw).__name__}")

    known = {"name", "order", "dim", "symmetric", "entries"}
    unknown = set(raw) - known
    if unknown:
        raise DocumentError(f"unknown document keys: {sorted(unknown)}")
    for key in ("order", "dim", "entries"):
        if key not in raw:
            raise DocumentError(f"missing required key '{key}'")

    order, dim = raw["order"], raw["dim"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 2:
        raise DocumentError(f"'order' must be an integer >= 2, got {order!r}")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DocumentError(f"'dim' must be an integer >= 1, got {dim!r}")
    symmetric = raw.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise DocumentError(f"'symmetric' must be true or false, got {symmetric!r}")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError(f"'name' must be a string, got {name!r}")
    if not isinstance(raw["entries"], list):
        raise DocumentError("'entries' must be a list")

    entries: list[tuple[tuple[int, ...], float]] = []
    seen: dict[tuple[int, ...], int] = {}
    duplicates: list[str] = []
    for pos, item in enumerate(raw["entries"]):
        where = f"entries[{pos}]"
        if not isinstance(item, dict) or set(item) != {"index", "value"}:
            raise DocumentError(f"{where}: each entry needs exactly 'index' and 'value'")
        idx = item["index"]
        if not isinstance(idx, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in idx
        ):
            raise DocumentError(f"{where}: 'index' must be a list of integers")
        if len(idx) != order:
            raise DocumentError(f"{where}: index length {len(idx)}, expected order {order}")
        if any(not 1 <= i <= dim for i in idx):
            raise DocumentError(f"{where}: index {idx} out of range 1..{dim}")
        value = item["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DocumentError(f"{where}: 'value' must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            raise DocumentError(f"{where}: value out of the float range") from None
        if value != value or value in (float("inf"), float("-inf")):
            raise DocumentError(f"{where}: non-finite value")
        key = tuple(idx)
        if key in seen:
            duplicates.append(f"index {idx} at entries[{seen[key]}] and {where}")
        else:
            seen[key] = pos
        entries.append((key, value))
    if duplicates:
        warnings.warn(
            "duplicate indices are summed: " + "; ".join(duplicates), stacklevel=2
        )
    return TensorDocument(
        order=order, dim=dim, entries=tuple(entries), symmetric=symmetric, name=name
    )


def serialize_document(doc: TensorDocument) -> str:
    """Inverse of parse_document up to formatting; round-trips exactly."""
    out: dict = {}
    if doc.name is not None:
        out["name"] = doc.name
    out["order"] = doc.order
    out["dim"] = doc.dim
    out["symmetric"] = doc.symmetric
    out["entries"] = [
        {"index": list(idx), "value": value} for idx, value in doc.entries
    ]
    return json.dumps(out, indent=2) + "\n"


def tensor_to_document(t: Tensor, name: str | None = None) -> TensorDocument:
    """One representative 1-based entry per stored slice.

    Rebuilding the document yields a tensor with identical slices; the
    symmetry flag is rediscovered by the build-time check, so it is not
    declared here (declaring it would re-symmetrize the representatives).
    """
    entries = []
    for (lead, trail), v in sorted(t.slices.items()):
        idx = tuple(i + 1 for i in (lead,) + trail)
        entries.append((idx, v))
    return TensorDocument(
        order=t.order, dim=t.dim, entries=tuple(entries), symmetric=False, name=name
    )


def load_document(path: str) -> TensorDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror or e}") from None
