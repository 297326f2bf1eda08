"""R6 fixture: every arena mutation bumps, directly or transitively."""

import numpy as np


class MiniTopology:
    def __init__(self):
        self._epoch = 0
        self.positions = []
        self._adj = []
        self._live = None
        self.rebuild()  # transitively bumping

    def _bump_epoch(self):
        self._epoch += 1

    def rebuild(self):
        self.positions = []
        self._adj = []
        self._live = None
        self._bump_epoch()

    def move(self, i, xy):
        self.positions[i] = xy
        self._bump_epoch()

    def refresh(self):
        self._adj = []
        self.rebuild()  # calls a bumping method

    def kill(self, i):
        self._live[i] = False
        self._bump_epoch()

    def reconnect(self):
        np.fill_diagonal(self._adj, True)
        adj = self._adj
        adj.fill(True)
        self._bump_epoch()  # in-place calls bump like stores

    def read_only(self):
        return len(self.positions)  # reads never need a bump

    def sorted_copy(self):
        return sorted(self.positions)  # a copy, not an in-place sort
