"""The edge stream of ``ingest_refresh`` and its reference answers.

Both processes of the workload draw the same edges from the seed: the
measured one appends them to the program, and a child process started as
``python3 perfbench/ingest_reference.py --seed N`` keeps the 2-path answer
set from adjacency sets, sharing no code with the program, and prints
the expected answer count and :func:`checksum` after each operation of a
segment.  The reference's own sets thus never sit in the process whose
peak RSS is measured.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

NODES = 20_000
EDGES = 60_000
BATCH = 10
SEGMENT_OPS = 1000


def fresh_edges(rng: random.Random, existing: set, count: int) -> list:
    """``count`` new edges (no self-loops, none already present)."""
    batch = []
    while len(batch) < count:
        edge = (rng.randrange(NODES), rng.randrange(NODES))
        if edge[0] != edge[1] and edge not in existing:
            existing.add(edge)
            batch.append(edge)
    return batch


def edge_stream(seed: int):
    """The graph's edges, the warm-up batch and one segment's batches."""
    rng = random.Random(f"ingest_refresh|{seed}")
    existing: set = set()
    graph = fresh_edges(rng, existing, EDGES)
    warm = fresh_edges(rng, existing, BATCH)
    batches = [fresh_edges(rng, existing, BATCH) for _ in range(SEGMENT_OPS)]
    return graph, warm, batches


def checksum(pairs) -> int:
    """An order-free digest of a set of pairs: the sum of their hashes
    (integer tuples hash alike in every process) modulo 2**64."""
    return sum(map(hash, pairs)) % 2**64


class TwoPathReference:
    """The 2-path answer set, maintained from adjacency sets, with its
    :func:`checksum` kept up to date as pairs arrive."""

    def __init__(self, edges) -> None:
        self.successors: dict = {}
        self.predecessors: dict = {}
        self.pairs: set = set()
        self.checksum = 0
        for edge in edges:
            self.add(edge)

    def add(self, edge) -> None:
        source, target = edge
        self.successors.setdefault(source, set()).add(target)
        self.predecessors.setdefault(target, set()).add(source)
        # The new edge as the first step, then as the second step.
        for end in self.successors.get(target, ()):
            self._found((source, end))
        for start in self.predecessors.get(source, ()):
            self._found((start, target))

    def _found(self, pair) -> None:
        if pair not in self.pairs:
            self.pairs.add(pair)
            self.checksum = (self.checksum + hash(pair)) % 2**64


def expected_answers(seed: int) -> list:
    """``[count, checksum]`` of the answer set after the warm-up batch and
    after each of the segment's operations."""
    graph, warm, batches = edge_stream(seed)
    reference = TwoPathReference(graph + warm)
    expected = [[len(reference.pairs), reference.checksum]]
    for batch in batches:
        for edge in batch:
            reference.add(edge)
        expected.append([len(reference.pairs), reference.checksum])
    return expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(expected_answers(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
