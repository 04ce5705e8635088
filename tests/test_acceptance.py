"""Acceptance gate: one check per advertised guarantee, each printing a
single PASS or FAIL line (run with -s to see them alongside the verdicts).

One check fails by design.  The advertised wall height for carving an
annulus family admits the call but is arithmetically below what the
construction consumes, on every triple with at least one inner annulus;
the carving refuses with an error naming both numbers instead of
delivering a smaller family.  That check records the failure honestly,
and the companion check right after it exercises the same carving
contract at the honest heights and passes.  Everything else is green."""

import itertools
import random
import time

import pytest
from networkx.generators.atlas import graph_atlas_g

from tmh.annulus import (
    annuli_capacity,
    boundaried_at_cycle,
    family_height_needed,
    find_collection_of_annuli,
    synthetic_annulus,
    synthetic_disk_host,
)
from tmh.decomposition import (
    bramble_order,
    build_elementary_wall,
    exact_treewidth,
    grid_bramble,
    max_bramble_order,
    validate_bramble,
    wall_layers,
)
from tmh.graphs import Graph, PartiallyDiskEmbedded, TmhError
from tmh.linkage import (
    LBPair,
    Linkage,
    TameFailed,
    TamingBudget,
    classify_terrain,
    improve_linkage,
    minimal_linkage,
    tame_linkage,
    tame_tm_model,
)
from tmh.solver import (
    find_irrelevant_area,
    grid_minor_certificate,
    solve_tm_deletion,
    verify_minor_model,
)
from tmh.synth import random_planar_graph, series_parallel_graph, stream_cycle_fabric
from tmh.tm import (
    BUILTIN_PATTERNS,
    PatternFamily,
    TmPair,
    compute_folio,
    dissolve,
    pF_oracle,
)

K3 = BUILTIN_PATTERNS["K3"]()
K4 = BUILTIN_PATTERNS["K4"]()
K23 = BUILTIN_PATTERNS["K23"]()
C4 = BUILTIN_PATTERNS["C4"]()

ZERO = TamingBudget(f1=lambda k: 0)


def _line(tag, ok, detail):
    print("ACCEPT %-3s %s  %s" % (tag, "PASS" if ok else "FAIL", detail))


def vid(i, k, m):
    return i * m + k % m


# -- 1: the safe pipeline against the deletion oracle ------------------------


FAMILIES = [
    PatternFamily([K3]),
    PatternFamily([K4]),
    PatternFamily([K23]),
    PatternFamily([C4]),
    PatternFamily([K3, K4]),
    PatternFamily([K23, C4]),
    PatternFamily([K3, K4, K23, C4]),
]

# single-pattern families without a triangle make the exhaustive model
# refutations explode past n=18, so the larger hosts rotate through
# families where some model is always cheap to settle
LARGE_HOST_FAMILIES = [
    PatternFamily([K3]),
    PatternFamily([K3, K4, K23, C4]),
    PatternFamily([K3, K4]),
]


def test_01_safe_mode_agrees_with_the_deletion_oracle():
    t0 = time.time()
    total = mismatches = 0
    for seed in range(56):
        g = random_planar_graph(seed, 12 + seed % 7)
        fam = FAMILIES[seed % len(FAMILIES)]
        for k in (0, 1, 2):
            # safe mode re-proves the per-deletion biconditional against
            # the oracle internally and raises on any violation, so a
            # clean return already covers that half of the contract
            out = solve_tm_deletion(g, fam, k, mode="safe")
            total += 1
            if out.answer != (pF_oracle(g, fam, k) is not None):
                mismatches += 1
    for i, seed in enumerate(range(100, 112)):
        g = random_planar_graph(seed, 19 + seed % 4)
        fam = LARGE_HOST_FAMILIES[i % len(LARGE_HOST_FAMILIES)]
        for k in (0, 1, 2):
            out = solve_tm_deletion(g, fam, k, mode="safe")
            total += 1
            if out.answer != (pF_oracle(g, fam, k) is not None):
                mismatches += 1
    elapsed = time.time() - t0
    ok = total >= 200 and mismatches == 0 and elapsed < 1800
    _line("1", ok, "%d instances, %d mismatches, %.0fs" % (total, mismatches, elapsed))
    assert total >= 200
    assert mismatches == 0
    assert elapsed < 1800


# -- 2: layer counts of elementary walls -------------------------------------


def test_02_wall_layer_counts():
    got = {r: len(wall_layers(build_elementary_wall(2 * r + 1))) for r in range(1, 9)}
    ok = all(got[r] == r for r in got)
    _line("2", ok, "heights 3..17 give layer counts %s" % sorted(got.values()))
    assert got == {r: r for r in range(1, 9)}


# -- 3: carving an annulus family out of one wall ----------------------------


TRIPLES = [(x, y, z) for x in (3, 5, 7) for y in (3, 5, 7) for z in (1, 2)] \
    + [(3, 3, 3), (5, 3, 3)]


def _wall_in_disk(h):
    w = build_elementary_wall(h)
    return PartiallyDiskEmbedded(w.host_subgraph, w.embedding, w.perimeter), w


def test_03_carving_at_the_advertised_capacity():
    assert len(TRIPLES) == 20
    shortfalls = []
    first_error = None
    for x, y, z in TRIPLES:
        cap = annuli_capacity(x, y, z)
        g, w = _wall_in_disk(cap)
        try:
            fam = find_collection_of_annuli(x, y, z, g, w)
            delivered = 1 + len(fam.inner)
        except TmhError as err:
            delivered = 0
            if first_error is None:
                first_error = str(err)
        if delivered != z + 1:
            shortfalls.append((x, y, z, cap, family_height_needed(x, y, z)))
    ok = not shortfalls
    _line("3", ok, "%d of %d triples deliver z+1 annuli at the advertised height"
          % (len(TRIPLES) - len(shortfalls), len(TRIPLES)))
    if ok:
        return
    rows = "  ".join("(%d,%d,%d): advertised %d, consumed %d" % s
                     for s in shortfalls)
    pytest.fail(
        "carving at the advertised height fails on every triple with an "
        "inner annulus: the capacity formula prices the nested cycles but "
        "not the subwall packed per inner annulus, so the wall it asks for "
        "is always too short.  The carving refuses rather than delivering "
        "a smaller family; the first refusal reads %r.  The honest "
        "requirement is family_height_needed, and the companion check "
        "below passes the identical contract at those heights.  Shortfall "
        "per triple (advertised vs consumed): %s" % (first_error, rows))


def test_03_companion_carving_at_the_honest_heights():
    for x, y, z in TRIPLES:
        need = family_height_needed(x, y, z)
        g, w = _wall_in_disk(need)
        fam = find_collection_of_annuli(x, y, z, g, w)
        # z+1 annuli in all: the outer plus z inner, each revalidated on
        # construction; disk arithmetic is re-checked here independently
        assert (fam.outer.r, fam.outer.q) == (x, x)
        assert len(fam.inner) == z
        hole = fam.outer.inner_disk()
        disks = []
        for a in fam.inner:
            assert (a.r, a.q) == (y, y)
            assert set(a.embedding.graph.vertices) <= hole
            disks.append(a.outer_disk())
        for da, db in itertools.combinations(disks, 2):
            assert not (da & db)
    _line("3c", True, "all %d triples deliver z+1 disjoint annuli at the "
          "honest heights" % len(TRIPLES))


# -- 4 and 5: taming linkages and models across one annulus matrix -----------


def _annulus_rows():
    rows = []
    for q in (5, 6, 7, 8, 9, 10, 11):
        for pad in (0, 6):
            for noise in (0, 2, 3):
                rows.append((13, q, 4 * q + pad, noise))
    for q in (5, 6, 7, 8):
        for noise in (0, 2):
            rows.append((11, q, 4 * q, noise))
    return rows


@pytest.fixture(scope="module")
def annulus_matrix():
    built = []
    for R, q, girth, noise in _annulus_rows():
        full = synthetic_annulus(R, q, girth=girth, seed=7 * q + noise, noise=noise)
        band = full.window(2, R - 1)
        built.append((full, band, R, q, girth))
    return built


def _rail_positions(q, m):
    return [k * m // q for k in range(q)]


def _detour_plant(full, R, m):
    # down one rail, around the middle ring, down the neighbour rail
    r1, r2 = full.rails[0], full.rails[1]
    ring = (R + 1) // 2
    c = list(full.cycles.cycles[ring - 1])
    a_end = full.crossings[(ring, 1)][-1]
    b_start = full.crossings[(ring, 2)][0]
    pos1 = {v: t for t, v in enumerate(r1)}
    pos2 = {v: t for t, v in enumerate(r2)}
    posc = {v: t for t, v in enumerate(c)}
    ia, ib = posc[a_end], posc[b_start]
    seg = [c[(ia + t) % len(c)] for t in range(1, (ib - ia) % len(c))]
    return tuple(r1[:pos1[a_end] + 1]) + tuple(seg) + tuple(r2[pos2[b_start]:])


def _dip_plant(full, R, q, m):
    p = _rail_positions(q, m)
    mid = (R + 1) // 2
    return tuple(vid(i, p[0], m) for i in range(mid + 1)) \
        + tuple(vid(mid, k, m) for k in range(p[0] + 1, p[1])) \
        + tuple(vid(i, p[1], m) for i in range(mid, -1, -1))


def _three_plant(full, R, q, m):
    p = _rail_positions(q, m)
    outer_arc = tuple(vid(0, k, m) for k in range(p[1] + 1, p[2]))
    inner_arc = tuple(vid(R - 1, k, m) for k in range(p[3] + 1, p[4]))
    return [outer_arc, tuple(full.rails[0]), inner_arc]


def test_04_tamed_linkages_satisfy_all_four_conclusions(annulus_matrix):
    successes = failures = violations = 0
    for idx, (full, band, R, q, m) in enumerate(annulus_matrix):
        g = full.embedding.graph
        mid = (q + 1) // 2 + 1
        kind = idx % 4
        if kind == 0:
            paths = [tuple(full.rails[1])]
        elif kind == 1:
            paths = [_detour_plant(full, R, m)]
        elif kind == 2:
            paths = [_dip_plant(full, R, q, m)]
        else:
            paths = _three_plant(full, R, q, m)
        l = Linkage(paths)
        band_vs = {vid(i, k, m) for i in range(1, R - 1) for k in range(m)}
        assert not ({p[0] for p in paths} | {p[-1] for p in paths}) & band_vs
        try:
            out = tame_linkage(g, band, l, 1, (mid,), budget=ZERO)
        except TameFailed:
            failures += 1
            continue
        successes += 1
        # the four conclusions, each recomputed from raw vertex sets
        # rather than read back from the taming machinery
        pairing = {frozenset((p[0], p[-1])) for p in out.paths}
        if pairing != {frozenset((p[0], p[-1])) for p in l.paths}:
            violations += 1
        if ({p[0] for p in out.paths} | {p[-1] for p in out.paths}) & band_vs:
            violations += 1
        if not (out.vertices - band_vs) <= (l.vertices - band_vs):
            violations += 1
        out_outside_e = {e for e in out.edges
                         if e[0] not in band_vs and e[1] not in band_vs}
        l_outside_e = {e for e in l.edges
                       if e[0] not in band_vs and e[1] not in band_vs}
        if not out_outside_e <= l_outside_e:
            violations += 1
        if not band.confines(out.union_graph(), 1, (mid,)):
            violations += 1
    # two crossing paths exceed the transfer capacity at width one, and
    # the contract is that this surfaces as an explicit failure outcome
    explicit = 0
    for full, band, R, q, m in annulus_matrix[:4]:
        g = full.embedding.graph
        l = Linkage([tuple(full.rails[0]), tuple(full.rails[2])])
        mid = (q + 1) // 2 + 1
        with pytest.raises(TameFailed):
            tame_linkage(g, band, l, 1, (mid, mid + 1), budget=ZERO)
        explicit += 1
    ok = (len(annulus_matrix) >= 50 and violations == 0
          and successes >= 45 and explicit == 4)
    _line("4", ok, "%d annuli: %d tamed with 0 of 4 conclusions violated, "
          "%d explicit failures" % (len(annulus_matrix), successes,
                                    failures + explicit))
    assert len(annulus_matrix) >= 50
    assert violations == 0
    assert successes >= 45
    assert failures == 0


def _crossing_column(full, R, q, m, j):
    return [vid(i, _rail_positions(q, m)[j], m) for i in range(R)]


def _model_plant(full, R, q, m, kind):
    p = _rail_positions(q, m)
    spine = _crossing_column(full, R, q, m, 0)
    if kind == 0:
        # one subdivided edge straight through the band
        mg = Graph(spine, list(zip(spine, spine[1:])))
        return TmPair(mg, frozenset({spine[0], spine[-1]}))
    if kind == 1:
        # a path of two edges turning on the inner ring
        tail = [vid(R - 1, p[0] + t, m) for t in range(4)]
        mg = Graph(set(spine) | set(tail),
                   list(zip(spine, spine[1:])) + list(zip(tail, tail[1:])))
        return TmPair(mg, frozenset({spine[0], tail[0], tail[-1]}))
    if kind == 2:
        # a three-leg star centered on the outer ring
        c = p[1]
        left = [vid(0, c - t, m) for t in range(3)]
        right = [vid(0, c + t, m) for t in range(3)]
        down = _crossing_column(full, R, q, m, 1)
        mg = Graph(set(left) | set(right) | set(down),
                   list(zip(left, left[1:])) + list(zip(right, right[1:]))
                   + list(zip(down, down[1:])))
        return TmPair(mg, frozenset({left[0], left[-1], right[-1], down[-1]}))
    if kind == 3:
        # four edges: the crossing plus a fully marked inner-ring chain
        tail = [vid(R - 1, p[0] + t, m) for t in range(4)]
        mg = Graph(set(spine) | set(tail),
                   list(zip(spine, spine[1:])) + list(zip(tail, tail[1:])))
        return TmPair(mg, frozenset({spine[0]} | set(tail)))
    # a cycle on the outer ring that never meets the band
    outer = [vid(0, k, m) for k in range(m)]
    mg = Graph(outer, list(zip(outer, outer[1:])) + [(outer[-1], outer[0])])
    return TmPair(mg, frozenset(vid(0, k, m) for k in (0, 3, 7, 10)))


def test_05_tamed_models_keep_branches_shape_and_confinement(annulus_matrix):
    successes = failures = violations = 0
    for idx, (full, band, R, q, m) in enumerate(annulus_matrix):
        g = full.embedding.graph
        mid = (q + 1) // 2 + 1
        pair = _model_plant(full, R, q, m, idx % 5)
        band_vs = {vid(i, k, m) for i in range(1, R - 1) for k in range(m)}
        assert not pair.branches & band_vs
        try:
            out = tame_tm_model(g, band, pair, 1, (mid,), budget=ZERO)
        except TameFailed:
            # the shorter hosts cannot fit the shrunken transfer band;
            # that must surface as an explicit failure, never silently
            failures += 1
            assert R == 11
            continue
        successes += 1
        if out.branches != pair.branches:
            violations += 1
        if dissolve(out) != dissolve(pair):
            violations += 1
        if not band.confines(out.model, 1, (mid,)):
            violations += 1
        if not (set(out.model.vertices) - band_vs) \
                <= (set(pair.model.vertices) - band_vs):
            violations += 1
    ok = violations == 0 and successes >= 42 and successes + failures == len(annulus_matrix)
    _line("5", ok, "%d models tamed with 0 violations, %d explicit failures"
          % (successes, failures))
    assert violations == 0
    assert successes >= 42
    assert successes + failures == len(annulus_matrix)


# -- 6: brambles from fabrics, and exhaustive width duality ------------------


def test_06_grid_brambles_validate_and_duality_is_exact():
    for r in (3, 4, 5):
        g, cycles, streams, boundary = stream_cycle_fabric(r)
        b = grid_bramble(g, cycles, streams, boundary)
        assert validate_bramble(g, b) is None
        assert bramble_order(g, b) >= r + 1
    checked = 0
    for ng in graph_atlas_g():
        n = ng.number_of_nodes()
        if n == 0 or n > 7:
            continue
        g = Graph(range(n), [tuple(sorted(e)) for e in ng.edges()])
        width, _ = exact_treewidth(g)
        assert max_bramble_order(g) == width + 1, "atlas graph on %d vertices" % n
        checked += 1
    ok = checked == 1252
    _line("6", ok, "3 fabric brambles validated; duality exact on all %d "
          "graphs with n <= 7" % checked)
    assert checked == 1252


# -- 7: cost descent and tight minimal linkages ------------------------------


def _seeded_lb_pair(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 9)
    verts = list(range(n))
    spine = verts[:]
    rng.shuffle(spine)
    edges = {tuple(sorted(e)) for e in zip(spine, spine[1:])}
    for _ in range(n):
        u, v = rng.sample(verts, 2)
        edges.add((min(u, v), max(u, v)))
    deg = {v: 0 for v in verts}
    base_edges = []
    for e in sorted(edges, key=lambda _: rng.random()):
        if deg[e[0]] < 2 and deg[e[1]] < 2:
            base_edges.append(e)
            deg[e[0]] += 1
            deg[e[1]] += 1
    return LBPair(Linkage([spine]), Graph(verts, base_edges))


def _blocked_dip_instance(R, q, d, mirror):
    m = 4 * q
    full = synthetic_annulus(R, q, girth=m)
    band = full.window(2, R - 1)
    g = full.embedding.graph
    p = _rail_positions(q, m)

    def rv(i):
        return R - 1 - i if mirror else i

    caps = []
    for a, b in ((p[1], p[2]), (p[4], p[5])):
        caps.append((vid(rv(0), a, m),)
                    + tuple(vid(rv(1), k, m) for k in range(a, b + 1))
                    + (vid(rv(0), b, m),))
    dip = tuple(vid(rv(i), p[0], m) for i in range(d + 1)) \
        + tuple(vid(rv(d), k, m) for k in range(p[0] + 1, p[3])) \
        + tuple(vid(rv(i), p[3], m) for i in range(d, -1, -1))
    return g, band, Linkage(caps + [dip])


def test_07_improvement_descends_and_minimal_features_are_tight():
    for seed in range(100):
        lb = _seeded_lb_pair(seed)
        cur = lb
        for _ in range(lb.cae + 1):
            nxt = improve_linkage(cur)
            if nxt is None:
                break
            improved = LBPair(nxt, cur.base)
            assert improved.cae < cur.cae
            cur = improved
        else:
            pytest.fail("improvement on seed %d never settled" % seed)
    # both cap arcs block the outermost band cycle, so the dip can only
    # flatten partway and the leftover feature must be tight
    terrains = features = 0
    for R, q in ((7, 6), (9, 6), (7, 8), (9, 8), (11, 6)):
        for d in (3, 4):
            if d + 2 > R - 1:
                continue
            for mirror in (False, True):
                g, band, l = _blocked_dip_instance(R, q, d, mirror)
                out = minimal_linkage(g, band.cycles, None, l)
                t = classify_terrain(g, band.cycles, None, out)
                found = t.mountains + t.valleys
                if not found:
                    continue
                terrains += 1
                features += len(found)
                assert all(f.tight for f in found), (R, q, d, mirror)
    ok = terrains >= 15
    _line("7", ok, "100 seeded pairs descend strictly; %d features tight on "
          "%d non-empty terrains" % (features, terrains))
    assert terrains >= 15


# -- 8: folios shrink toward the center --------------------------------------


def test_08_folio_chains_shrink_inward():
    chains = 0
    for (r, q), combos in [
        ((3, 3), [(t, h) for t in (1, 2, 3) for h in (1, 2, 3, 4)]),
        ((5, 3), [(1, 2), (2, 3), (3, 4)]),
    ]:
        a = synthetic_annulus(r, q)
        g = a.embedding.graph
        for t, h in combos:
            fols = [compute_folio(boundaried_at_cycle(g, a, i, t), t, h)
                    for i in range(1, a.r + 1)]
            for deeper, shallower in zip(fols[1:], fols):
                assert deeper.issubset(shallower), (r, q, t, h)
            chains += 1
    _line("8", True, "%d nested folio chains monotone for t <= 3, h <= 4" % chains)


# -- 9: the carved disk certifies its own width ------------------------------


def _grid_pattern(b):
    vs = [(r, c) for r in range(b) for c in range(b)]
    es = []
    for r in range(b):
        for c in range(b):
            if r + 1 < b:
                es.append(((r, c), (r + 1, c)))
            if c + 1 < b:
                es.append(((r, c), (r, c + 1)))
    return Graph(vs, es)


def _hunt_certificate(a, b, closed):
    for i in range(1, a.r - b + 2):
        for j in range(1, a.q - b + 2):
            try:
                sets = grid_minor_certificate(a, i, i + b - 1, j, j + b - 1)
            except TmhError:
                continue
            if set().union(*[set(s) for s in sets.values()]) <= closed:
                return sets
    return None


def test_09_carved_disks_contain_their_grid_minors():
    rows = [(91, 3, 2, False), (99, 5, 3, False), (13, 3, 2, True), (15, 4, 3, True)]
    for R, q, b, force in rows:
        gr, a = synthetic_disk_host(R, q)
        region = find_irrelevant_area(1, 0, b, gr, a, budget=ZERO, force=force)
        closed = region.vertices("closed")
        sub = region.subgraph("closed")
        # the width claim, recomputed exactly on the returned disk alone
        width, _ = exact_treewidth(sub)
        assert width >= b, (R, q, b)
        # and a b-by-b grid minor found afresh inside the disk, checked
        # branch set by branch set
        sets = _hunt_certificate(a, b, closed)
        assert sets is not None, (R, q, b)
        b_sets = {key: sets[key] for key in
                  [(r, c) for r in range(b) for c in range(b)]}
        verify_minor_model(sub, _grid_pattern(b), b_sets)
    _line("9", True, "4 carved disks: exact width >= b and a fresh b-by-b "
          "grid minor certificate inside each")


# -- 10: fast mode at five hundred vertices ----------------------------------


def test_10_fast_mode_finishes_quickly_at_size_500():
    g = series_parallel_graph(7, 500)
    t0 = time.time()
    out = solve_tm_deletion(g, PatternFamily([K4]), 1, mode="fast")
    elapsed = time.time() - t0
    ok = out.answer is True and elapsed < 60
    _line("10", ok, "500-vertex instance solved in %.1fs (budget 60s)" % elapsed)
    assert out.answer is True
    assert out.witness == ()
    assert elapsed < 60
