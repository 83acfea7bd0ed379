"""The benchmark's own answer check, independent of the program's kernels.

Reachability is decided by a breadth-first search over the time-expanded
digraph whose nodes are (vertex, arrival label) pairs: from (v, a) a time-edge
{v, w} at label t leads to (w, t) when t >= a (t > a for strict paths).  A
node is expanded only if it improves the earliest known arrival at its
vertex, which loses nothing because an earlier arrival admits every
continuation of a later one.  A temporal walk exists iff a temporal path
does (cutting a loop out of a walk keeps its labels monotone), so the search
answers path existence.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence


def temporal_path_exists(
    n: int,
    triples: Iterable[tuple[int, int, int]],
    s: int,
    z: int,
    strict: bool = False,
    removed: frozenset = frozenset(),
) -> bool:
    """Whether a temporal (s,z)-path survives the deletion of `removed`."""
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, t in triples:
        if u in removed or v in removed:
            continue
        incident[u].append((t, v))
        incident[v].append((t, u))
    best = [None] * n
    best[s] = 0
    queue = deque([(s, 0)])
    while queue:
        v, a = queue.popleft()
        if a != best[v]:
            continue  # superseded by an earlier arrival
        for t, w in incident[v]:
            if (t > a if strict else t >= a) and (best[w] is None or t < best[w]):
                if w == z:
                    return True
                best[w] = t
                queue.append((w, t))
    return False


def triples_of(flat: Sequence[int]) -> list[tuple[int, int, int]]:
    return [(flat[i], flat[i + 1], flat[i + 2]) for i in range(0, len(flat), 3)]


def witness_problem(
    n: int,
    triples: Sequence[tuple[int, int, int]],
    s: int,
    z: int,
    k: int,
    strict: bool,
    witness,
) -> Optional[str]:
    """Why a yes-witness is wrong, or None when it separates s from z within k."""
    if not isinstance(witness, (list, tuple)) or not all(isinstance(v, int) for v in witness):
        return f"witness {witness!r} is not a vertex list"
    cut = frozenset(witness)
    if len(cut) != len(witness):
        return f"witness {sorted(witness)} repeats a vertex"
    if len(cut) > k:
        return f"witness of size {len(cut)} exceeds budget {k}"
    if s in cut or z in cut:
        return f"witness {sorted(cut)} contains a terminal"
    if any(not (0 <= v < n) for v in cut):
        return f"witness {sorted(cut)} has a vertex outside 0..{n - 1}"
    if temporal_path_exists(n, triples, s, z, strict, cut):
        return f"a temporal path survives deleting {sorted(cut)}"
    return None


class AnswerChecker:
    """Counts a call as failed unless its verdict and witness are right.

    A call fails if it raised or timed out, if its verdict differs from the
    recorded one, or if a yes-witness fails `witness_problem`.  Each distinct
    (instance, query, witness) triple is searched once; repeats reuse that.
    """

    def __init__(self):
        self._seen: dict[tuple, Optional[str]] = {}
        self.failures: list[str] = []

    def check(
        self,
        key: str,
        graph,  # a callable returning (n, triples) on demand
        s: int,
        z: int,
        k: int,
        strict: bool,
        expected_verdict: bool,
        verdict: Optional[bool],
        witness,
        error: Optional[str] = None,
    ) -> bool:
        if error is not None:
            problem = f"call raised: {error}"
        elif verdict is None:
            problem = "no verdict"
        elif verdict != expected_verdict:
            problem = f"verdict {'yes' if verdict else 'no'} differs from recorded {'yes' if expected_verdict else 'no'}"
        elif not verdict:
            problem = None if witness is None else f"no-verdict carries witness {witness!r}"
        else:
            memo = (key, k, strict, tuple(sorted(witness)) if isinstance(witness, (list, tuple)) else repr(witness))
            if memo not in self._seen:
                n, triples = graph()
                self._seen[memo] = witness_problem(n, triples, s, z, k, strict, witness)
            problem = self._seen[memo]
        if problem is not None:
            self.failures.append(f"{key} k={k}{' strict' if strict else ''}: {problem}")
            return False
        return True
