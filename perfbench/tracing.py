"""Per-layer tracing from outside the package.

The tracer wraps public functions of the ``entmesh`` modules while it is
installed and restores the originals afterwards; nothing under ``src/`` is
edited.  Each wrapped call records one span ``(name, start, end, parent)``
in memory.  Because ``engine``, ``node`` and ``entangle`` import names
directly, every module binding of a wrapped function is replaced, not only
the defining one.

Two wrapper kinds exist:

* span targets time a call; a layer's self time is the span's duration
  minus the part of it covered by child spans;
* count targets (``node_hash``, ``leaf_hash``) only count calls, so hash
  work stays inside the self time of whichever span asked for it.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import inspect
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

Span = tuple  # (name, start, end, parent index or -1)

# (module, attribute path, span name).  An attribute path with a dot is a
# class member; properties are wrapped on their getter.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("entmesh.hashtree", "MerkleTree.prove_inclusion", "hashtree.prove_inclusion"),
    ("entmesh.hashtree", "MerkleTree.root", "hashtree.root"),
    ("entmesh.hashtree", "root", "hashtree.root"),
    ("entmesh.hashtree", "verify_inclusion", "hashtree.verify_inclusion"),
    ("entmesh.keys", "KeyPair.sign", "keys.sign"),
    ("entmesh.keys", "Ed25519Scheme.verify", "keys.verify"),
    ("entmesh.sexpr", "encode_tree", "sexpr.encode_tree"),
    ("entmesh.wire", "encode_inclusion_proof", "wire.encode_inclusion_proof"),
    ("entmesh.wire", "read_inclusion_proof", "wire.read_inclusion_proof"),
    ("entmesh.node", "build_round", "node.build_round"),
    ("entmesh.node", "round_leaves", "node.round_leaves"),
    ("entmesh.node", "Node.issue_receipt", "node.issue_receipt"),
    ("entmesh.node", "Node.verify_receipt", "node.verify_receipt"),
    ("entmesh.node", "verify_chain_entries", "node.verify_chain_entries"),
    ("entmesh.node", "Receipt.to_bytes", "node.Receipt.to_bytes"),
    ("entmesh.entangle", "build_hub_proof", "entangle.build_hub_proof"),
    ("entmesh.entangle", "build_chain_proof", "entangle.build_chain_proof"),
    ("entmesh.entangle", "encode_proof", "entangle.encode_proof"),
    ("entmesh.entangle", "decode_proof", "entangle.decode_proof"),
    ("entmesh.entangle", "verify_link", "entangle.verify_link"),
    ("entmesh.entangle", "verify_hub", "entangle.verify_hub"),
    ("entmesh.entangle", "verify_chain", "entangle.verify_chain"),
    ("entmesh.simnet.engine", "Simulation.run", "simnet.run"),
    ("entmesh.simnet.engine", "Simulation.retained_bytes", "simnet.retained_bytes"),
    ("entmesh.simnet.topology", "Topology.issuers_of", "simnet.topology"),
    ("entmesh.simnet.topology", "Topology.holders_of", "simnet.topology"),
    ("entmesh.simnet.topology", "Topology.neighbors", "simnet.topology"),
    ("entmesh.ledger", "write_ledger", "ledger.write_ledger"),
    ("entmesh.ledger", "write_trust_bundle", "ledger.write_trust_bundle"),
    ("entmesh.ledger", "load_trust_bundle", "ledger.load_trust_bundle"),
    ("entmesh.config", "load_config", "config.load_config"),
    ("entmesh.config", "make_simulation", "config.make_simulation"),
    ("entmesh.cli", "main", "cli.main"),
)

COUNT_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("entmesh.hashtree", "node_hash", "hashtree.node_hash"),
    ("entmesh.hashtree", "leaf_hash", "hashtree.leaf_hash"),
)

# Every public function and method of ``entmesh.identity`` shares one span name.
IDENTITY_MODULE = "entmesh.identity"
VERIFY_SPAN = "keys.verify"


def identity_targets() -> list[tuple[str, str, str]]:
    module = importlib.import_module(IDENTITY_MODULE)
    targets = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            targets.append((IDENTITY_MODULE, name, "identity"))
        elif inspect.isclass(obj) and obj.__module__ == IDENTITY_MODULE:
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    targets.append((IDENTITY_MODULE, f"{name}.{attr}", "identity"))
    return targets


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (overlapping children are counted once, and
    a child is clipped to its parent's interval).
    """
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = collections.defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


def call_counts(spans: Iterable[Span]) -> dict[str, int]:
    return dict(collections.Counter(span[0] for span in spans))


class Tracer:
    """Installs wrappers for one traced stretch and collects its spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.verify_triples: set = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        triples = self.verify_triples if name == VERIFY_SPAN else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if triples is not None:
                    # Ed25519Scheme.verify(self, verify_key, message, signature)
                    triples.add(tuple(bytes(a) for a in args[1:4]))

        return functools.update_wrapper(wrapper, fn)

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- installation ------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install_one(self, module_name: str, path: str, wrap: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            member = cls.__dict__[attr]
            if isinstance(member, property):
                self._set(cls, attr, property(wrap(member.fget), member.fset, member.fdel, member.__doc__))
            else:
                self._set(cls, attr, wrap(member))
            return
        original = getattr(module, path)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "entmesh" or mod_name.startswith("entmesh.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in SPAN_TARGETS + tuple(identity_targets()):
            self._install_one(module_name, path, functools.partial(self._span_wrapper, name))
        for module_name, path, name in COUNT_TARGETS:
            self._install_one(module_name, path, functools.partial(self._count_wrapper, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        if self._stack:
            raise RuntimeError("spans still open at uninstall")

    def write_spans(self, path: Path) -> None:
        """Write the spans as gzip'd TSV: name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                out.write(f"{name}\t{int(start * 1e9)}\t{int(end * 1e9)}\t{parent}\n")
