"""R6 fixture: arena mutation without an epoch bump (should flag)."""

import numpy as np


class MiniTopology:
    def __init__(self):
        self._epoch = 0
        self.positions = []
        self._adj = []
        self._live = None

    def _bump_epoch(self):
        self._epoch += 1

    def rebuild(self):
        self.positions = []
        self._adj = []
        self._live = None
        self._bump_epoch()

    def sneak_move(self, i, xy):
        # Mutates the arena but never bumps: cached routes go stale.
        self.positions[i] = xy

    def sneak_alias(self, i, xy):
        pos = self.positions
        pos[i] = xy

    def sneak_fill_diagonal(self):
        # An in-place numpy function writes its first argument.
        np.fill_diagonal(self._adj, True)

    def sneak_fill(self):
        # An in-place method writes its receiver, here through an alias.
        adj = self._adj
        adj.fill(True)

    def sneak_kill(self, i):
        # Masks a row out of the arena but never bumps: cached routes
        # still pass through it.
        self._live[i] = False
