"""Seeded inputs for the benchmark workloads.

Everything a workload sends is derived here from ``(workload, seed)``:
the deployment mix, the user population, the per-request true results,
and (for ``http-scrape-wal``) the pre-charge plan and the privacy floor.
The server only ever sees the generated publish payloads. The load
generator process and the orchestrator call the same functions, so both
sides agree on the request sequence without shipping it between
processes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: The three geometric deployments the existing serving benches use.
GEOMETRIC_MIX = (
    {"n": 8, "alpha": "1/2"},
    {"n": 40, "alpha": "1/4"},
    {"n": 100, "alpha": "2/3"},
)

#: The bespoke deployment of ``inproc-c1024-wal``: the optimal mechanism
#: for an absolute-loss consumer who knows the result is at least 4.
OPTIMAL_DEPLOYMENT = {
    "kind": "optimal", "n": 8, "alpha": "1/2", "loss": "absolute",
    "side": [4, 5, 6, 7, 8],
}


@dataclass(frozen=True)
class WorkloadShape:
    """The traffic shape of one workload (see ``BENCHMARK.json``)."""

    transport: str          # "http" or "inproc"
    users: int              # user population
    mix: tuple              # deployment payload fields, cycled per request
    active_users: int       # users the publisher draws from (<= users)
    concurrency: int        # closed-loop publishers
    scrapers: int           # connections issuing /metrics scrapes in the window
    pool: int               # pre-generated requests, cycled
    floor: Fraction         # the per-user privacy floor (0: no floor)


#: ``http-scrape-wal``: the privacy floor, the share of users pre-charged
#: to within a few charges of it, and how many alpha=1/4 charges those
#: users have left (0, 1 or 2).
SCRAPE_FLOOR = Fraction(1, 4096)
NEAR_FLOOR_SHARE = 0.2
NEAR_FLOOR_LEFT = (0, 1, 2)

SHAPES = {
    "inproc-c1024-wal": WorkloadShape(
        "inproc", 50_000,
        GEOMETRIC_MIX + (OPTIMAL_DEPLOYMENT,), 50_000, 1024, 0,
        1 << 17, Fraction(0),
    ),
    "http-scrape-wal": WorkloadShape(
        "http", 5_000, GEOMETRIC_MIX, 2_000,
        1, 1, 1 << 14, SCRAPE_FLOOR,
    ),
}


def _rng(workload: str, seed: int, stream: str) -> np.random.Generator:
    tag = zlib.crc32(f"{workload}/{stream}".encode())
    return np.random.default_rng([int(seed), tag])


def user_name(index: int) -> str:
    return f"u{int(index):05d}"


@dataclass(frozen=True)
class RequestPool:
    """``pool`` publish requests as parallel arrays (request k uses
    ``users[k]``, deployment ``deployments[k]`` of the shape's mix, and
    true result ``rows[k]``). Callers cycle the pool in order."""

    shape: WorkloadShape
    users: np.ndarray
    deployments: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    def payload(self, k: int) -> dict:
        k %= len(self.users)
        payload = {"user": user_name(self.users[k])}
        payload.update(self.shape.mix[int(self.deployments[k])])
        payload["true_result"] = int(self.rows[k])
        return payload

    def n_of(self, k: int) -> int:
        return self.shape.mix[int(self.deployments[k % len(self.users)])]["n"]

    def alpha_of(self, k: int) -> Fraction:
        dep = self.shape.mix[int(self.deployments[k % len(self.users)])]
        return Fraction(dep["alpha"])


def population(workload: str, seed: int) -> np.ndarray:
    """A seeded permutation of the user population; the first
    ``active_users`` entries are the users the publishers draw from."""
    shape = SHAPES[workload]
    return _rng(workload, seed, "population").permutation(shape.users)


def request_pool(workload: str, seed: int) -> RequestPool:
    """The workload's request sequence: users cycle through the active
    set in seeded order, deployments cycle through the mix, and each true
    result is uniform over the deployment's range (over the side set for
    a side-information deployment)."""
    shape = SHAPES[workload]
    active = population(workload, seed)[: shape.active_users]
    k = np.arange(shape.pool)
    users = active[k % len(active)]
    deployments = k % len(shape.mix)
    rng = _rng(workload, seed, "rows")
    rows = np.empty(shape.pool, dtype=np.int64)
    for index, dep in enumerate(shape.mix):
        mask = deployments == index
        support = dep.get("side") or list(range(dep["n"] + 1))
        rows[mask] = rng.choice(np.asarray(support), size=int(mask.sum()))
    return RequestPool(shape, users, deployments, rows)


def prefill_plan(workload: str, seed: int) -> dict[str, Fraction]:
    """The workload's pre-charges: one ``DurableLedger.charge`` per
    user, so every user is in the book before the window opens.

    Without a floor each user spends 1/2. With one, far users spend 1/2
    or 1/4 and a ``NEAR_FLOOR_SHARE`` of users spend down to
    ``floor * 4**left`` for ``left`` in ``NEAR_FLOOR_LEFT``, so the 429
    floor path runs during the window."""
    shape = SHAPES[workload]
    users = population(workload, seed)
    if shape.floor == 0:
        return {user_name(user): Fraction(1, 2) for user in users}
    rng = _rng(workload, seed, "prefill")
    near = rng.random(shape.users) < NEAR_FLOOR_SHARE
    left = rng.choice(np.asarray(NEAR_FLOOR_LEFT), size=shape.users)
    far_alpha = (Fraction(1, 2), Fraction(1, 4))
    far_pick = rng.integers(0, 2, size=shape.users)
    plan = {}
    for i, user in enumerate(users):
        if near[i]:
            alpha = shape.floor * 4 ** int(left[i])
        else:
            alpha = far_alpha[int(far_pick[i])]
        plan[user_name(user)] = alpha
    return plan


def expected_statuses(prefill, floor, requests) -> list[int]:
    """The exact admissions a floor allows, in request order.

    ``prefill`` maps user -> cumulative alpha already charged (absent
    users start at 1); ``requests`` is an iterable of ``(user, alpha)``
    sent one after another. A request is admitted (200) iff the product
    after it stays at or above ``floor`` — the server's exact-Fraction
    rule — and refused (429) otherwise, leaving the product unchanged.
    """
    cumulative = dict(prefill)
    statuses = []
    for user, alpha in requests:
        current = cumulative.get(user, Fraction(1))
        proposed = current * alpha
        if floor == 0 or proposed >= floor:
            cumulative[user] = proposed
            statuses.append(200)
        else:
            statuses.append(429)
    return statuses
