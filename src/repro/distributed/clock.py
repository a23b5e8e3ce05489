"""Per-rank simulated clocks with named time categories.

Fig. 1's breakdown (KFAC Allgather / KFAC Allreduce / KFAC Computations /
Forward+Backward / Others) is produced by accumulating simulated seconds
into these categories as the trainer executes.

Two representations share one contract:

* :class:`SimClock` — one independent clock per rank (the convergence
  track).  Cost: O(world) clock mutations per collective.
* :class:`VirtualClockPlane` + :class:`VirtualClock` — the timing
  track's representation: one shared base time plus a *sparse* map of
  per-rank skews.  Ranks are near-symmetric (collectives are barriers),
  so almost all per-rank clocks are equal almost all the time; only
  ranks that diverged (stragglers, owner-only compute) carry an entry.
  A barrier is O(#skewed ranks), independent of world size, which is
  what lets the fleet scheduler run 16k-rank jobs on a laptop.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["SimClock", "VirtualClock", "VirtualClockPlane"]


class SimClock:
    """Monotonic simulated clock accumulating time per category."""

    def __init__(self) -> None:
        self.now = 0.0
        self.categories: dict[str, float] = defaultdict(float)

    def advance(self, seconds: float, category: str = "other") -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        self.now += seconds
        self.categories[category] += seconds

    def sync_to(self, t: float, category: str = "wait") -> None:
        """Jump forward to ``t`` (barrier wait); no-op if already past it."""
        if t > self.now:
            self.categories[category] += t - self.now
            self.now = t

    def breakdown(self) -> dict[str, float]:
        """Copy of the per-category time totals."""
        return dict(self.categories)


class VirtualClockPlane:
    """All per-rank clocks of a timing-track cluster, stored sparsely.

    The plane keeps one shared ``base`` time plus ``skew`` — a map from
    rank id to how far that rank is *ahead* of the base.  Between two
    barriers only the ranks that did extra work (an eigendecomposition
    owner, a straggler) appear in ``skew``; a barrier folds the maximum
    skew into the base and clears the map, charging the mean per-rank
    wait, so the common collective path costs O(#skewed ranks) no matter
    how large the world is.

    ``categories`` accumulates *mean per-rank* seconds, matching what
    :meth:`SimCluster.breakdown` reports on the convergence track.
    """

    def __init__(self, world_size: int) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be positive, got {world_size}")
        self.world_size = world_size
        self.base = 0.0
        self.skew: dict[int, float] = {}
        self.categories: dict[str, float] = defaultdict(float)
        # Straggler accounting for xray: how many seconds each rank has
        # led a barrier by (it arrived last, everyone else waited on it),
        # plus the total mean per-rank barrier wait.  Sparse, like skew.
        self.lead_seconds: dict[int, float] = {}
        self.barrier_wait_s = 0.0

    @property
    def max_now(self) -> float:
        """The furthest-ahead rank's time (where the next barrier lands)."""
        return self.base + (max(self.skew.values()) if self.skew else 0.0)

    def now_of(self, rank: int) -> float:
        return self.base + self.skew.get(rank, 0.0)

    def advance_all(self, seconds: float, category: str = "other") -> None:
        """Advance every rank together (perfectly parallel work)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        self.base += seconds
        self.categories[category] += seconds

    def advance_rank(self, rank: int, seconds: float, category: str = "other") -> None:
        """Advance one rank ahead of the pack (owner-only compute)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        self.skew[rank] = self.skew.get(rank, 0.0) + seconds
        self.categories[category] += seconds / self.world_size

    def sync_rank_to(self, rank: int, t: float, category: str = "wait") -> None:
        """Jump one rank forward to ``t``; no-op if already past it."""
        now = self.now_of(rank)
        if t > now:
            self.categories[category] += (t - now) / self.world_size
            self.skew[rank] = t - self.base

    def barrier(self, category: str = "wait") -> None:
        """Synchronise every rank to the furthest-ahead one.

        Charges the mean per-rank wait: ranks not in ``skew`` wait the
        full maximum skew, each skewed rank waits the difference.
        """
        if not self.skew:
            return
        top = max(self.skew.values())
        if top > 0.0:
            mean_skew = sum(self.skew.values()) / self.world_size
            top_rank = min(r for r, s in self.skew.items() if s == top)
            self.lead_seconds[top_rank] = self.lead_seconds.get(top_rank, 0.0) + top
            self.barrier_wait_s += top - mean_skew
            self.categories[category] += top - mean_skew
            self.base += top
        self.skew.clear()

    def top_straggler(self) -> tuple[int, float] | None:
        """The rank that led the most barrier time (rank, seconds).

        Returns ``None`` when no barrier has folded skew yet; ties break
        to the lowest rank id.
        """
        if not self.lead_seconds:
            return None
        top = max(self.lead_seconds.values())
        rank = min(r for r, s in self.lead_seconds.items() if s == top)
        return rank, top

    def breakdown(self) -> dict[str, float]:
        return dict(self.categories)


class VirtualClock:
    """Per-rank adapter with the :class:`SimClock` interface, backed by a
    shared :class:`VirtualClockPlane`.

    Lets the runtime engine, trainers, and tests address "rank r's clock"
    uniformly on both tracks; mutations through the adapter stay sparse.
    """

    __slots__ = ("plane", "rank")

    def __init__(self, plane: VirtualClockPlane, rank: int) -> None:
        self.plane = plane
        self.rank = rank

    @property
    def now(self) -> float:
        return self.plane.now_of(self.rank)

    @property
    def categories(self) -> dict[str, float]:
        """The plane's shared mean-per-rank category totals."""
        return self.plane.categories

    def advance(self, seconds: float, category: str = "other") -> None:
        self.plane.advance_rank(self.rank, seconds, category)

    def sync_to(self, t: float, category: str = "wait") -> None:
        self.plane.sync_rank_to(self.rank, t, category)

    def breakdown(self) -> dict[str, float]:
        return self.plane.breakdown()
