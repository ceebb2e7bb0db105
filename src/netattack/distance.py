"""The exact d kernel: mean hop counts of whole live clusters.

``Graph.avg_shortest_path`` forwards to this module, which it imports
on the first d row, with numpy, so start-up and d-free sweeps compile
neither.
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np

# BFS sources per chunk, in 64-bit words; its arrays grow linearly with
# this and the member count
_CHUNK_WORDS = 4
# neighbour columns gathered as slices, per BFS level; a hub's
# neighbours past them take one gather and OR-reduce
_COLUMNS = 6
# leaf share of a cluster from which its pendant trees fold; below it
# the weight planes cost more than the smaller core saves
_FOLD_SHARE = 0.1


def avg_shortest_path(adjacency, members, live) -> float | None:
    """Mean hop count over the member pairs of one whole live cluster.

    ``members``, a sequence or int array of ids in any order, must be
    exactly one connected cluster of the nodes that ``live`` flags, and
    ``live`` must hold one flag per node, or ValueError is raised. None
    for fewer than two members.

    The ordered-pair hop total comes from bit-parallel BFS. When at
    least ``_FOLD_SHARE`` of the members are leaves, the pendant trees
    fold into the 2-core first (:func:`_fold_trees`), so the searches
    run on the core only, each core node standing for the s members of
    its tree. A folded node's edge to its parent splits the cluster into
    its subtree of s members and the k - s others, and every pair across
    it crosses it once, which adds 2·s·(k − s) (Wiener, J. Am. Chem.
    Soc. 69, 17, 1947); core nodes q and r add s_q·s_r times their core
    hop count in each direction.

    Multi-source BFS (Then et al., VLDB 2014): each core node is a BFS
    source with its own bits, 64 to a uint64 word and ``_CHUNK_WORDS``
    words to a chunk, and one level of all their searches ORs each
    row's neighbour rows of the frontier into its row of the next.
    Source r has one bit in plane b for each set bit b of s_r
    (:func:`_weight_planes`); plane b fills whole words, which weigh
    2^b, so a level's pair count is the row weights times the words'
    popcounts times the word weights. An unfolded cluster is the one
    plane of unit rows and just sums its popcounts. A chunk's searches
    end at the level that completes the pairs they owe a whole cluster.
    The neighbours sit in a degree-sorted, column-sliced layout
    (SELL-C-sigma, Kreutzer et al., SIAM J. Sci. Comput. 36(5), 2014):
    the rows are numbered by descending degree, so those with a c-th
    neighbour are a prefix of the numbering, and a level is one
    contiguous gather per column c < ``_COLUMNS``, ORed into that
    prefix. Only the neighbours of the hubs past those columns take a
    gather and an OR-reduce.
    """
    n = len(adjacency)
    ids = np.asarray(members, dtype=np.intp)
    live = np.frombuffer(bytes(live), dtype=np.uint8)
    if len(live) != n:
        raise ValueError(f"live holds {len(live)} flags for {n} nodes")
    # first, as numpy indexing would wrap a negative id
    outside = (ids < 0) | (ids >= n)
    if outside.any():
        raise ValueError(f"node id {ids[outside].min()} outside [0, {n})")
    crashed = live[ids] == 0
    if crashed.any():
        raise ValueError(f"member {ids[crashed].min()} is crashed")
    k = len(ids)
    if k < 2:
        return None
    degree, indices = _member_csr(adjacency, ids, live)
    total = 0
    size = np.ones(k, dtype=np.int64)
    core = k
    if np.count_nonzero(degree == 1) >= _FOLD_SHARE * k:
        size, kept, left = _fold_trees(indices, degree)
        cut = size[~kept]
        total = 2 * int((cut * (k - cut)).sum())
        core = np.count_nonzero(kept)
        if core == 1:
            return total / (k * (k - 1))
        # the edges between core nodes; a folded node has none left
        indices = indices[np.repeat(kept, degree) & kept[indices]]
        degree = np.where(kept, left, 0)
    order = np.argsort(-degree, kind="stable")[:core]
    rank = np.empty(k, dtype=np.intp)
    rank[order] = np.arange(core)
    indices = rank[indices]
    starts = (np.cumsum(degree) - degree)[order]
    degree = degree[order]
    # each core node's tree size, the weight of its row
    weight = size[order]
    # a core node whose every neighbour folded into it sorts last
    if degree[-1] == 0:
        raise ValueError("members are not one whole live cluster")
    sliced = [
        indices[starts[: np.count_nonzero(degree > c)] + c] for c in range(min(_COLUMNS, degree[0]))
    ]
    hubs = np.count_nonzero(degree > _COLUMNS)
    spill = degree[:hubs] - _COLUMNS
    spill_starts = np.cumsum(spill) - spill
    tail = indices[
        np.repeat(starts[:hubs] + _COLUMNS - spill_starts, spill) + np.arange(spill.sum())
    ]
    source, bit, word_weight, cuts = _weight_planes(weight, _CHUNK_WORDS)
    # an unfolded cluster: every weight is 1
    unit = word_weight[-1] == 1
    for lo, a, b in zip(range(0, len(word_weight), _CHUNK_WORDS), cuts, cuts[1:]):
        chunk_weight = word_weight[lo : lo + _CHUNK_WORDS]
        frontier = np.zeros((core, len(chunk_weight)), dtype=np.uint64)
        chunk_bit = bit[a:b] - np.uint64(64 * lo)
        frontier[source[a:b], chunk_bit >> 6] = np.uint64(1) << (chunk_bit & 63)
        unseen = ~frontier
        nxt = np.empty_like(frontier)
        part = np.empty_like(frontier)
        counts = None if unit else np.empty(frontier.shape, dtype=np.int64)
        tail_rows = np.empty((len(tail), frontier.shape[1]), dtype=np.uint64)
        # the pairs this chunk's searches reach in a whole cluster
        due = int((chunk_weight[chunk_bit >> 6] * (k - weight[source[a:b]])).sum())
        reached = 0
        level = 0
        while True:
            level += 1
            # "clip" (the indices are in range) spares the copy "raise" makes for out=
            frontier.take(sliced[0], axis=0, out=nxt, mode="clip")
            for column in sliced[1:]:
                gathered = part[: len(column)]
                frontier.take(column, axis=0, out=gathered, mode="clip")
                nxt[: len(column)] |= gathered
            if hubs:
                frontier.take(tail, axis=0, out=tail_rows, mode="clip")
                np.bitwise_or.reduceat(tail_rows, spill_starts, axis=0, out=part[:hubs])
                nxt[:hubs] |= part[:hubs]
            nxt &= unseen
            if unit:
                count = int(np.bitwise_count(nxt).sum())
            else:
                count = int(weight @ np.bitwise_count(nxt, out=counts) @ chunk_weight)
            if not count:
                raise ValueError("members are not one whole live cluster")
            reached += count
            total += level * count
            if reached == due:
                break
            unseen ^= nxt
            frontier, nxt = nxt, frontier
    return total / (k * (k - 1))


def _member_csr(adjacency, ids, live):
    """The members' live neighbours as CSR rows, in member order.

    Returns each member's live degree and, row after row, its live
    neighbours' positions in ``ids``. A repeated member, a live neighbour
    outside the members or a member with no live neighbour raises
    ValueError.
    """
    k = len(ids)
    rows = [adjacency[v] for v in ids.tolist()]
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=k)
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=int(lengths.sum()))
    up = live[flat] != 0
    degree = np.bincount(np.repeat(np.arange(k), lengths)[up], minlength=k)
    local = np.full(len(adjacency), -1, dtype=np.intp)
    local[ids] = np.arange(k)
    # a repeated member takes one slot for two numbers
    if np.count_nonzero(local >= 0) != k:
        raise ValueError("duplicate member ids")
    # -1 is a non-member
    indices = local[flat[up]]
    if degree.min() == 0 or indices.min() < 0:
        raise ValueError("members are not one whole live cluster")
    return degree, indices


def _fold_trees(indices, degree):
    """Fold a cluster's pendant trees into its 2-core, leaves first.

    ``indices`` is the CSR of the members' neighbours in member order and
    ``degree`` their neighbour counts. Each round folds every current
    leaf into its one unfolded neighbour, which adds the leaf's size to
    its own, so a folded node's size is the member count of the subtree
    it heads, and a core node's that of its tree. The rounds stop at the
    2-core, or at one node when the cluster is a tree. Two leaves joined
    to each other are a tree's last two nodes; anywhere else they are a
    separate cluster, and ValueError is raised. Returns every member's
    size, the core as a mask over the members and the degrees left.
    """
    k = len(degree)
    # the XOR of each node's unfolded neighbours, which for a leaf is its one
    other = np.bitwise_xor.reduceat(indices, np.cumsum(degree) - degree)
    degree = degree.copy()
    size = np.ones(k, dtype=np.int64)
    core = np.ones(k, dtype=bool)
    slot = np.empty(k, dtype=np.intp)
    leaves = np.flatnonzero(degree == 1)
    left = k
    while len(leaves) and left > 1:
        parent = other[leaves]
        if (degree[parent] == 1).any():
            if left != 2:
                raise ValueError("members are not one whole live cluster")
            leaves, parent = leaves[:1], parent[:1]
        core[leaves] = False
        np.add.at(size, parent, size[leaves])
        np.subtract.at(degree, parent, 1)
        np.bitwise_xor.at(other, parent, leaves)
        left -= len(leaves)
        # a parent that lost several leaves is listed once for each; keep
        # the one listing that its slot names
        leaves = parent[degree[parent] == 1]
        listing = np.arange(len(leaves))
        slot[leaves] = listing
        leaves = leaves[slot[leaves] == listing]
    return size, core, degree


def _weight_planes(weight, chunk_words: int):
    """Where each BFS source's bits go, for row weights ``weight``.

    A row of weight w has one bit in plane b for each set bit b of w.
    Plane b lists its rows in order from a fresh word, and its words
    weigh 2^b, so the popcount of a row's words times their weights sums
    to w. Returns the row of each bit, the bit's position in the plane
    layout (uint64), the word weights, and the first bit of every
    ``chunk_words``-word chunk followed by the bit count.
    """
    planes = [np.flatnonzero(weight >> b & 1) for b in range(int(weight.max()).bit_length())]
    words = [(len(rows) + 63) // 64 for rows in planes]
    bit = np.concatenate(
        [
            np.arange(64 * w, 64 * w + len(rows), dtype=np.uint64)
            for rows, w in zip(planes, accumulate(words, initial=0))
        ]
    )
    word_weight = np.repeat(1 << np.arange(len(planes), dtype=np.int64), words)
    # the bits in each word: 64, or fewer in the last word of a plane
    filled = [min(64, len(rows) - 64 * i) for rows, n in zip(planes, words) for i in range(n)]
    firsts = list(accumulate(filled, initial=0))
    return np.concatenate(planes), bit, word_weight, firsts[::chunk_words] + firsts[-1:]
