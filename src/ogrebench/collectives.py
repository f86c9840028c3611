"""Collective communication over the fabric: tree reduce/broadcast/allreduce
and recursive-doubling allreduce.

A collective is a blocking rendezvous across a group of workers.  Every
cross-member transfer goes through ``Cluster.send`` and is therefore metered;
the group additionally counts logical collective messages (rank-to-rank),
which is what the message-count contracts are stated in.

Fold order is always structural, never arrival order, so results are
reproducible for a fixed configuration:
  * deterministic mode gathers all contributions and folds them in ascending
    rank order (identical for every algorithm),
  * benchmark mode folds pairwise along the algorithm's own topology, in rank
    order at each combining step.
"""

from __future__ import annotations

from functools import reduce as _fold

from .fabric import Cluster, NodeDown
from .kernel import merge

TREE = "tree"
RECURSIVE_DOUBLING = "rdouble"


class CollectiveError(RuntimeError):
    """A member failed mid-collective; surfaced to every participant."""


class CollectiveGroup:
    """Ordered member list (rank -> node id) sharing collective state."""

    def __init__(self, cluster: Cluster, member_nodes: list[int],
                 algorithm: str = TREE, deterministic: bool = False,
                 compress: bool = False):
        if not member_nodes:
            raise ValueError("empty group")
        if algorithm not in (TREE, RECURSIVE_DOUBLING):
            raise ValueError(f"unknown collective algorithm {algorithm!r}")
        self.cluster = cluster
        self.nodes = list(member_nodes)
        self.algorithm = algorithm
        self.deterministic = deterministic
        self.compress = compress

    @property
    def size(self) -> int:
        return len(self.nodes)

    def member(self, rank: int) -> "GroupMember":
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside group of size {self.size}")
        return GroupMember(self, rank)


class GroupMember:
    """Per-worker handle; tracks the member's epoch (collective call count)."""

    def __init__(self, group: CollectiveGroup, rank: int):
        self.group = group
        self.rank = rank
        self._epoch = 0

    # -- wire helpers ------------------------------------------------------

    def _send(self, dst_rank: int, payload, epoch: int) -> None:
        g = self.group
        tag = f"c{epoch}:{self.rank}>{dst_rank}"
        try:
            nbytes = g.cluster.send(g.nodes[self.rank], g.nodes[dst_rank], payload,
                                    tag=tag, compressed=g.compress)
        except NodeDown as exc:
            raise CollectiveError(str(exc)) from exc
        g.cluster.metrics.add(collective_messages=1, collective_bytes=nbytes)

    def _recv(self, src_rank: int, epoch: int):
        g = self.group
        tag = f"c{epoch}:{src_rank}>{self.rank}"
        return g.cluster.recv(g.nodes[src_rank], g.nodes[self.rank], tag=tag)

    # -- public operations -------------------------------------------------

    def allreduce(self, payload, op=merge):
        """Every member receives the fold of all members' contributions."""
        epoch = self._epoch
        self._epoch += 1
        if self.group.size == 1:
            return payload
        if self.group.algorithm == RECURSIVE_DOUBLING:
            return self._allreduce_rdouble(payload, op, epoch)
        return self._allreduce_tree(payload, op, epoch)

    def broadcast(self, payload, root: int = 0):
        """Tree dissemination from root; p-1 messages."""
        epoch = self._epoch
        self._epoch += 1
        if self.group.size == 1:
            return payload
        vrank = self._vrank(root)
        if vrank != 0:
            payload = self._recv(self._absrank(self._parent(vrank), root), epoch)
        for child in self._children(vrank):
            self._send(self._absrank(child, root), payload, epoch)
        return payload

    def reduce(self, payload, root: int = 0, op=merge):
        """Root receives the fold; other members return None."""
        epoch = self._epoch
        self._epoch += 1
        if self.group.size == 1:
            return payload
        folded = self._reduce_to_root(payload, op, root, epoch)
        return folded if self.rank == root else None

    # -- tree topology (binary tree over virtual ranks) --------------------

    def _vrank(self, root: int) -> int:
        return (self.rank - root) % self.group.size

    def _absrank(self, vrank: int, root: int) -> int:
        return (vrank + root) % self.group.size

    @staticmethod
    def _parent(vrank: int) -> int:
        return (vrank - 1) // 2

    def _children(self, vrank: int):
        p = self.group.size
        return [c for c in (2 * vrank + 1, 2 * vrank + 2) if c < p]

    def _reduce_to_root(self, payload, op, root: int, epoch: int):
        """Fold up the tree.  Deterministic mode forwards the raw
        contributions and folds once at the root, in ascending rank order;
        benchmark mode folds at each internal node in rank order."""
        vrank = self._vrank(root)
        deterministic = self.group.deterministic
        if deterministic:
            acc = {self.rank: payload}
            for child in self._children(vrank):
                acc.update(self._recv(self._absrank(child, root), epoch))
            if vrank != 0:
                self._send(self._absrank(self._parent(vrank), root), acc, epoch)
                return None
            return _fold(op, (acc[r] for r in sorted(acc)))
        acc = payload
        for child in self._children(vrank):
            acc = op(acc, self._recv(self._absrank(child, root), epoch))
        if vrank != 0:
            self._send(self._absrank(self._parent(vrank), root), acc, epoch)
            return None
        return acc

    def _allreduce_tree(self, payload, op, epoch: int):
        folded = self._reduce_to_root(payload, op, 0, epoch)
        return self.broadcast(folded, root=0)

    # -- recursive doubling ------------------------------------------------

    def _allreduce_rdouble(self, payload, op, epoch: int):
        """Pairwise exchange over hypercube rounds.  Non-power-of-two sizes
        fold the excess members into the nearest lower power of two with one
        extra pre and post round."""
        p = self.group.size
        core = 1 << (p.bit_length() - 1)
        det = self.group.deterministic
        contribution = {self.rank: payload} if det else payload
        if core == p:
            return self._rdouble_core(contribution, op, epoch, self.rank, p,
                                      lambda r: r)
        excess = p - core
        if self.rank < 2 * excess and self.rank % 2 == 1:
            # Excess member: hand the contribution to the even partner, wait
            # for the final result.
            self._send(self.rank - 1, contribution, epoch)
            return self._recv(self.rank - 1, epoch)
        if self.rank < 2 * excess:
            got = self._recv(self.rank + 1, epoch)
            if det:
                contribution = {**contribution, **got}
            else:
                contribution = op(contribution, got)
            core_rank = self.rank // 2
        else:
            core_rank = self.rank - excess

        def to_abs(r):
            return 2 * r if r < excess else r + excess

        result = self._rdouble_core(contribution, op, epoch, core_rank, core, to_abs)
        if self.rank < 2 * excess:
            self._send(self.rank + 1, result, epoch)
        return result

    def _rdouble_core(self, contribution, op, epoch: int, core_rank: int,
                      core: int, to_abs):
        det = self.group.deterministic
        acc = contribution
        round_no = 0
        dist = 1
        while dist < core:
            partner = to_abs(core_rank ^ dist)
            # Distinct sub-epoch per round so pairwise exchanges cannot mix.
            sub = epoch * 64 + round_no + 1
            self._send(partner, acc, sub)
            got = self._recv(partner, sub)
            if det:
                acc = {**acc, **got}
            else:
                lo, hi = ((acc, got) if self.rank < partner else (got, acc))
                acc = op(lo, hi)
            dist <<= 1
            round_no += 1
        if det:
            return _fold(op, (acc[r] for r in sorted(acc)))
        return acc
