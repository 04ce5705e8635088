"""Taming fixtures: the 50-annulus matrix of the acceptance gate with a
planted linkage and a planted model per annulus.

Everything here is rebuilt from public `tmh` functions, so that internal
helpers of the package can change or disappear without touching the
benchmark.  The band is cut with the public `annulus.sub_annulus`.
"""

from tmh import annulus
from tmh.graphs import Graph
from tmh.linkage import Linkage
from tmh.tm import TmPair


def matrix_rows():
    """(R, q, girth, noise) for each annulus of the matrix, in order."""
    rows = []
    for q in (5, 6, 7, 8, 9, 10, 11):
        for pad in (0, 6):
            for noise in (0, 2, 3):
                rows.append((13, q, 4 * q + pad, noise))
    for q in (5, 6, 7, 8):
        for noise in (0, 2):
            rows.append((11, q, 4 * q, noise))
    return rows


def vid(i, k, m):
    """Vertex id of position k on ring i of a synthetic annulus of girth m."""
    return i * m + k % m


def rail_positions(q, m):
    return [k * m // q for k in range(q)]


def band_vertices(R, m):
    """Vertices strictly between the outer and inner ring."""
    return {vid(i, k, m) for i in range(1, R - 1) for k in range(m)}


def linkage_plant(full, R, q, m, kind):
    """One of four planted linkages whose terminals avoid the band."""
    if kind == 0:
        return Linkage([tuple(full.rails[1])])
    p = rail_positions(q, m)
    if kind == 1:
        # down one rail, around the middle ring, down the neighbouring rail
        r1, r2 = full.rails[0], full.rails[1]
        ring = (R + 1) // 2
        c = list(full.cycles.cycles[ring - 1])
        a_end = full.crossings[(ring, 1)][-1]
        b_start = full.crossings[(ring, 2)][0]
        ia, ib = c.index(a_end), c.index(b_start)
        seg = [c[(ia + t) % len(c)] for t in range(1, (ib - ia) % len(c))]
        return Linkage([tuple(r1[:r1.index(a_end) + 1]) + tuple(seg)
                        + tuple(r2[r2.index(b_start):])])
    if kind == 2:
        # a dip to the middle ring and back up the next rail position
        mid = (R + 1) // 2
        return Linkage([
            tuple(vid(i, p[0], m) for i in range(mid + 1))
            + tuple(vid(mid, k, m) for k in range(p[0] + 1, p[1]))
            + tuple(vid(i, p[1], m) for i in range(mid, -1, -1))])
    # three paths: an outer arc, a full rail and an inner arc
    return Linkage([tuple(vid(0, k, m) for k in range(p[1] + 1, p[2])),
                    tuple(full.rails[0]),
                    tuple(vid(R - 1, k, m) for k in range(p[3] + 1, p[4]))])


def _path_graph(*paths):
    vs = set()
    es = []
    for path in paths:
        vs.update(path)
        es.extend(zip(path, path[1:]))
    return Graph(vs, es)


def model_plant(R, q, m, kind):
    """One of five planted subdivision models whose branches avoid the
    band."""
    p = rail_positions(q, m)
    spine = [vid(i, p[0], m) for i in range(R)]
    if kind == 0:
        # one subdivided edge straight through the band
        return TmPair(_path_graph(spine), frozenset({spine[0], spine[-1]}))
    tail = [vid(R - 1, p[0] + t, m) for t in range(4)]
    if kind == 1:
        # a path of two edges turning on the inner ring
        return TmPair(_path_graph(spine, tail),
                      frozenset({spine[0], tail[0], tail[-1]}))
    if kind == 2:
        # a three-leg star centred on the outer ring
        c = p[1]
        left = [vid(0, c - t, m) for t in range(3)]
        right = [vid(0, c + t, m) for t in range(3)]
        down = [vid(i, p[1], m) for i in range(R)]
        return TmPair(_path_graph(left, right, down),
                      frozenset({left[0], left[-1], right[-1], down[-1]}))
    if kind == 3:
        # the crossing plus a fully marked inner-ring chain
        return TmPair(_path_graph(spine, tail), frozenset({spine[0]} | set(tail)))
    # a cycle on the outer ring that never meets the band
    outer = [vid(0, k, m) for k in range(m)]
    return TmPair(_path_graph(outer + [outer[0]]),
                  frozenset(vid(0, k, m) for k in (0, 3, 7, 10)))


def build_matrix(seed_base):
    """The annulus matrix; seed_base 0 gives the acceptance gate's seeds.
    Rows with noise 0 do not depend on the seed."""
    built = []
    for R, q, girth, noise in matrix_rows():
        full = annulus.synthetic_annulus(R, q, girth=girth,
                                         seed=seed_base + 7 * q + noise,
                                         noise=noise)
        band = annulus.sub_annulus(full, 2, R - 1)
        built.append((full, band, R, q, girth))
    return built
