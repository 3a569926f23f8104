"""Named replica mutants: each is one rule broken by one patch, applied as a
context manager, so a test can ask whether an oracle notices.  A mutant
changes how the real replica code runs; it copies none of it."""

from contextlib import contextmanager
from unittest import mock

from bftsim.core import ReplicaConfig
from bftsim.replica import Replica


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
