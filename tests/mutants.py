"""Named replica mutants: each is one rule broken by one patch, applied as a
context manager, so a test can ask whether an oracle notices.  A mutant
changes how the real replica code runs; it copies none of it.  Beside them,
faults that only tests register, for attacks no run may make yet."""

from contextlib import contextmanager
from typing import NamedTuple
from unittest import mock

from bftsim.core import (QC, Multicast, Proposal, ReplicaConfig, Send,
                         TxnBatch, make_block, value_types)
from bftsim.replica import Replica
from bftsim.simnet import Honest


class Forge(NamedTuple):
    """As leader, certifies its own blocks: for each proposal it multicasts
    at round r, each half of the network gets its own chain of four
    proposals, at rounds r to r+3, each block after the first on a QC
    signed by 2f+1 replicas that never voted for it.  Mock crypto takes
    the signer set on trust (ROADMAP item 1)."""

    byzantine, down = True, Honest.down

    def rewrite(self, actions, n: int):
        signers = frozenset(range(2 * ((n - 1) // 3) + 1))
        out = []
        for a in actions:
            if not (isinstance(a, Multicast) and isinstance(a.msg, Proposal)):
                out.append(a)
                continue
            p, b = a.msg, a.msg.block
            for half, tos in enumerate((range(n // 2), range(n // 2, n))):
                parent, coin = b.parent_qc, p.coin_qc
                for k in range(4):
                    blk = make_block(parent, b.round + k, b.view, TxnBatch(
                        f"{b.payload.payload_id}~forged{half}.{k}"))
                    out += [Send(j, Proposal(blk, p.sender, coin))
                            for j in tos]
                    parent, coin = QC(blk.id, blk.round, blk.view,
                                      signers), None
        return out


value_types(Forge)


class _OneLinkShort(ReplicaConfig):
    """The same settings, with a commit chain one block shorter."""

    __slots__ = ()

    @property
    def fallback_top_height(self) -> int:
        return ReplicaConfig.fallback_top_height.fget(self) - 1


@contextmanager
def commit_chain_one_short():
    """``Replica._commit_target`` walks one parent link fewer: a replica
    commits the base of a chain one certified block short of its rule."""
    commit_target = Replica._commit_target

    def one_short(self, top_id):
        config = self.config
        self.config = _OneLinkShort(*config)
        try:
            return commit_target(self, top_id)
        finally:
            self.config = config

    with mock.patch.object(Replica, "_commit_target", one_short):
        yield


@contextmanager
def no_lock_raise():
    """``Replica._raise_lock`` does nothing: the lock stays at genesis, so
    a replica votes for a block however far below its highest certificate
    the block's parent ranks."""
    with mock.patch.object(Replica, "_raise_lock", lambda self, cert: None):
        yield
