"""The proof format's reference codec, written from docs/FORMATS.md.

Each record FORMATS lays out is a tuple of rows here, in FORMATS order:
``(kind, name)``, or ``(kind, name, bound)`` where FORMATS gives a bound,
with the kinds of FORMATS "Scalar conventions"; ``tests/test_reference.py``
holds each FORMATS layout block to its rows.  One writer and one reader
walk the rows field by field, and the tests hold the library's codecs,
which join kept bytes and unpack fixed heads whole, to them: to the
writer's bytes, and to the reader's records or its ``WireError`` text.
The reader copies each field out as it reads it, reads a path one sibling
at a time, makes each record through its public constructor, and notes
where each field starts (``Reader.starts``).
"""

import struct
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from entmesh.entangle import ChainProof, HubProof, LinkProof, WindowRound
from entmesh.hashtree import DIGEST_SIZE, InclusionProof
from entmesh.node import LEAF_EVIDENCE, MAX_SIGNATURE, ChainLink, Commitment, HolderChain, ReceiptPaths
from entmesh.wire import MAX_AUDIT_STEPS, MAX_ITEMS, WireError


class Record(NamedTuple):
    rows: tuple  # (kind, name[, bound]), in wire order
    fields: Optional[Callable] = None  # a record's field values in row order; None: its attributes of the rows' names
    make: Optional[Callable] = None  # the record, from its fields by name and the bytes read; None: it is never read


def _made(cls, keeps: bool = False) -> Callable:
    """Make ``cls`` from its fields in row order, and if it ``keeps`` them, the bytes it was read from."""
    return lambda f, data: cls(*f.values(), **({"encoding": data} if keeps else {}))


def sides(index: int, size: int) -> list:
    """Each step's side (0 = sibling on the left, 1 = on the right),
    bottom-up, from the split rule worked top-down."""
    out, lo, hi = [], 0, size
    while hi - lo > 1:
        k = 1 << ((hi - lo - 1).bit_length() - 1)
        out.append(int(index < lo + k))
        lo, hi = (lo, lo + k) if index < lo + k else (lo + k, hi)
    return out[::-1]


def _receipt_path(path: InclusionProof, size: int) -> tuple:
    return path.leaf_index, size, tuple(zip(sides(path.leaf_index, size), path.siblings, strict=True))


def _receipt(r) -> tuple:
    size = r.issuer_commitment.leaf_count
    return r.submission, r.issuer_commitment, (r.paths.inclusion, size), r.prev_digest, (r.paths.prev_inclusion, size)


PROOF_KINDS = {0x10: "LinkProof", 0x11: "HubProof", 0x12: "ChainProof"}
_KIND_BYTES = {name: kind for kind, name in PROOF_KINDS.items()}

RECORDS = {
    "Path": Record((("u64", "leaf_index"), ("list<digest>", "audit_steps", MAX_AUDIT_STEPS)), tuple, _made(InclusionProof)),
    "ReceiptPath": Record((("u64", "leaf_index"), ("u64", "tree_size"), ("list<Step>", "steps")), lambda held: _receipt_path(*held)),
    "Step": Record((("u8", "side"), ("digest", "sibling")), tuple),
    "Submission": Record((("digest", "holder_id"), ("u64", "holder_round"), ("digest", "holder_root"), ("blob", "signature"))),
    "Commitment": Record(
        (("digest", "node_id"), ("u64", "round"), ("digest", "root"), ("u64", "leaf_count"), ("blob", "signature", MAX_SIGNATURE)),
        make=_made(Commitment, keeps=True),
    ),
    "Receipt": Record(
        (("Submission", "submission"), ("blob<Commitment>", "issuer_commitment"), ("blob<ReceiptPath>", "inclusion"),
         ("digest", "prev_digest"), ("blob<ReceiptPath>", "prev_inclusion")),
        _receipt,
    ),
    "EvidenceLeaf": Record((("u8", "tag"), ("Receipt", "receipt")), lambda receipt: (LEAF_EVIDENCE, receipt)),
    "WindowRound": Record(
        (("blob", "signature", MAX_SIGNATURE), ("digest[written]", "prev_digests"), ("ReceiptPaths[issuers]", "receipts"),
         ("path", "evidence_proof")),
        make=lambda f, _: WindowRound(**f),
    ),
    "ReceiptPaths": Record((("path", "inclusion"), ("path@0", "prev_inclusion")), make=_made(ReceiptPaths, keeps=True)),
    "ChainLink": Record((("path@0", "proof"),), make=_made(ChainLink, keeps=True)),
    "HolderChain": Record(
        (("list<Commitment>", "holder_chain_commitments", MAX_ITEMS), ("ChainLink[holder_chain_commitments-1]", "links")),
        attrgetter("commitments", "links"),
        _made(HolderChain),
    ),
    "LinkProof": Record(
        (("digest", "issuer_id"), ("HolderChain", "holder_chain"), ("list<WindowRound>", "window_rounds", MAX_ITEMS)),
        attrgetter("issuer_id", "holder_chain", "rounds"),
        _made(LinkProof),
    ),
    "HubProof": Record(
        (("list<digest>", "manifest_ids", MAX_ITEMS), ("list<path@2>", "manifest_proofs", MAX_ITEMS), ("HolderChain", "holder_chain"),
         ("list<WindowRound>", "window_rounds", MAX_ITEMS)),
        attrgetter("manifest", "manifest_proofs", "holder_chain", "rounds"),
        _made(HubProof),
    ),
    "ChainProof": Record((("list<LinkProof>", "hops", MAX_ITEMS),), make=_made(ChainProof)),
    "Envelope": Record(
        (("magic", "EMPB"), ("u8", "kind"), ("LinkProof|HubProof|ChainProof", "body")),
        lambda proof: (None, _KIND_BYTES[type(proof).__name__], proof),
        lambda f, _: f["body"],
    ),
}

# Counts a record's place fixes, where no count is written ("Receipt in a
# proof"): the issuers a proof names, one for a link proof and the manifest's
# length for a hub, and the prev digests a window round writes, one per
# issuer in the window's first round and none after it.
PLACED = {
    "issuers": lambda scope: len(scope["manifest_ids"]) if "manifest_ids" in scope else 1,
    "written": lambda scope: _count("issuers", scope) if scope["index"] == 0 else 0,
}

_SCALARS = {"u8": struct.Struct(">B"), "u32": struct.Struct(">I"), "u64": struct.Struct(">Q")}


def _count(count: str, scope: dict) -> int:
    """``n`` or ``n-1``: a placed count, an earlier field's value, or a list's length."""
    name, _, less = count.partition("-")
    n = PLACED[name](scope) if name in PLACED else scope[name]
    return (n if isinstance(n, int) else len(n)) - int(less or 0)


def fields(kind: str, value) -> dict:
    """A record's fields by name: ``value``'s, or ``value`` if it is a dict of them already."""
    if isinstance(value, dict):
        return value
    rows, get, _ = RECORDS[kind]
    values = get(value) if get else [getattr(value, row[1]) for row in rows]
    return {row[1]: field for row, field in zip(rows, values, strict=True)}


def write(kind: str, value, since: Optional[str] = None, until: Optional[str] = None) -> bytes:
    """``value`` as a ``kind``, field by field, refused as the library
    refuses it.  A record's value is the record, or a dict of its fields by
    name, which may hold any shape; ``since`` and ``until`` name the row to
    start at and the one to stop before."""
    if kind.endswith("]"):  # K[n]: each item, uncounted
        return b"".join([write(kind.partition("[")[0], item) for item in value])
    if kind in _SCALARS:
        if not 0 <= value < 1 << 8 * _SCALARS[kind].size:
            raise WireError(f"{kind} out of range: {value}")
        return _SCALARS[kind].pack(value)
    if kind == "digest":
        if len(value) != DIGEST_SIZE:
            raise WireError(f"digest must be {DIGEST_SIZE} bytes")
        return bytes(value)
    if kind == "blob":
        return write("u32", len(value)) + value
    if kind.startswith("blob<"):
        return write("blob", write(kind[5:-1], value))
    if kind.startswith("list<"):
        return write("u32", len(value)) + b"".join([write(kind[5:-1], item) for item in value])
    if kind.startswith("path"):
        fixed = kind.partition("@")[2]
        if fixed and value.leaf_index != int(fixed):
            raise WireError(f"path at leaf {value.leaf_index}, not at leaf {fixed}")
        return write("Path", value, since="audit_steps" if fixed else None)
    f, rows = fields(kind, value), RECORDS[kind].rows
    names = [row[1] for row in rows]
    out = []
    for row_kind, name, *_ in rows[names.index(since) if since else 0 : names.index(until) if until else None]:
        if row_kind == "magic":
            out.append(name.encode())
        else:
            out.append(write(PROOF_KINDS[f["kind"]] if "|" in row_kind else row_kind, f[name]))
    return b"".join(out)


def encode(proof, **changes) -> bytes:
    """``proof`` in its envelope, field by field, with ``changes`` to its fields by name."""
    body = {**fields(type(proof).__name__, proof), **changes}
    return write("Envelope", {"kind": _KIND_BYTES[type(proof).__name__], "body": body})


def receipt_paths(paths: ReceiptPaths, prev_digest: bytes, size: int) -> bytes:
    """A receipt's rows after its issuer commitment, for paths in an issuer tree of ``size`` leaves."""
    rest = {"inclusion": (paths.inclusion, size), "prev_digest": prev_digest, "prev_inclusion": (paths.prev_inclusion, size)}
    return write("Receipt", rest, since="inclusion")


class Reader:
    """Reads ``data`` field by field.  ``starts`` maps each field read, by
    its dotted name (``body.window_rounds.0.signature``), to where it starts."""

    def __init__(self, data: bytes):
        self.data, self.pos, self.starts = bytes(data), 0, {}

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WireError("truncated input")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def read(self, kind: str, scope: Optional[dict] = None, at: str = "", name: str = "", bound: Optional[int] = None):
        scope = scope or {}
        self.starts[at] = self.pos
        if kind.endswith("]"):
            base, _, count = kind[:-1].partition("[")
            return tuple([self.read(base, scope, f"{at}.{i}") for i in range(_count(count, scope))])
        if kind in _SCALARS:
            return _SCALARS[kind].unpack(self.take(_SCALARS[kind].size))[0]
        if kind == "digest":
            return self.take(DIGEST_SIZE)
        if kind.startswith(("blob", "list<")):
            n = _SCALARS["u32"].unpack(self.take(4))[0]
            if bound is not None and n > bound:
                raise WireError(f"blob length {n} exceeds limit" if kind == "blob" else f"too many {name.replace('_', ' ')}: {n}")
            if kind == "blob":
                return self.take(n)
            if kind.startswith("blob<"):
                return decode(self.take(n), kind[5:-1])
            return tuple([self.read(kind[5:-1], {**scope, "index": i}, f"{at}.{i}") for i in range(n)])
        if kind.startswith("path"):
            return self.record("Path", scope, at, {"leaf_index": int(kind[5:])} if "@" in kind else None)
        return self.record(kind, scope, at)

    def record(self, kind: str, scope: dict, at: str, fixed: Optional[dict] = None):
        """Record ``kind``'s rows in turn, but those ``fixed`` gives, which are not written."""
        start, f = self.pos, dict(fixed or {})
        for row_kind, name, *bound in RECORDS[kind].rows:
            if name in f:
                continue
            if row_kind == "magic":
                if len(self.data) - self.pos <= len(name) or self.take(len(name)) != name.encode():
                    raise WireError("not a proof file")  # nor is a file that ends before its kind byte
                continue
            if "|" in row_kind:
                row_kind = PROOF_KINDS.get(f["kind"])
                if row_kind is None:
                    raise WireError(f"unknown proof kind {f['kind']:#x}")
            f[name] = self.read(row_kind, {**scope, **f}, f"{at}.{name}".lstrip("."), name, *bound)
        return RECORDS[kind].make(f, self.data[start : self.pos])


def decode(data: bytes, kind: str = "Envelope"):
    """One ``kind`` read from ``data``, which it must end."""
    r = Reader(data)
    value = r.read(kind)
    if r.pos != len(r.data):
        raise WireError(f"{len(r.data) - r.pos} trailing bytes")
    return value


def starts(data: bytes, kind: str = "Envelope") -> dict:
    """Where each field of the ``kind`` in ``data`` starts, by its dotted name."""
    r = Reader(data)
    r.read(kind)
    return r.starts
