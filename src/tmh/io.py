"""Plain-text instance files, input bundles with recorded digests,
machine-parseable reports, and DOT export.

Formats are line-oriented and reviewable by eye: graphs as an "n m" header
plus edge lines, embeddings as rotation lines, annuli as cycle and rail
lines, linkages as path lines.  Emission orders everything deterministically
so identical inputs produce identical bytes; timings live in their own
report section so golden comparisons can drop them.
"""

import hashlib
import json
import os

from .graphs import (
    EmbeddingError,
    Graph,
    ParseError,
    PartiallyDiskEmbedded,
    PlaneEmbedding,
    TmhError,
    _path_edges,
    parse_graph,
)
from .annulus import RailedAnnulus
from .decomposition import Wall
from .linkage import Linkage, Terrain
from .tm import BUILTIN_PATTERNS, PatternFamily


# -- reading input files ----------------------------------------------------


def read_text(path):
    """The text of an input file, decoded as UTF-8 with its line endings
    as written, so encoding it again gives the file's bytes.  A file that
    is missing, is a directory, cannot be opened or is not UTF-8 is a
    ParseError that names the path."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError("cannot read %s: %s" % (path, err))


# -- graph files -------------------------------------------------------------


def emit_graph(g):
    """The edge-list document parse_graph reads back: "n m" header, then
    one sorted "u v" line per edge.  Vertex ids must be 0..n-1."""
    vs = sorted(g.vertices)
    if vs != list(range(g.n)):
        raise TmhError("graph emission needs vertex ids 0..n-1, got %r..%r"
                       % (vs[0] if vs else None, vs[-1] if vs else None))
    lines = ["%d %d" % (g.n, g.m)]
    lines.extend("%d %d" % e for e in g.sorted_edges())
    return "\n".join(lines) + "\n"


# -- embedding files ---------------------------------------------------------


def emit_embedding(emb, disk=None):
    """Rotation system plus outer-face index, one "rot v n1 n2 ..." line
    per vertex; an optional "disk v1 v2 ..." line records the boundary
    walk of a disk-embedded host."""
    lines = []
    for v in sorted(emb.graph.vertices):
        lines.append(" ".join(["rot", str(v)] +
                              [str(w) for w in emb.rotation[v]]))
    lines.append("outer %d" % emb.outer_face)
    if disk is not None:
        lines.append(" ".join(["disk"] + [str(v) for v in disk]))
    return "\n".join(lines) + "\n"


def _int_fields(parts, line_no):
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError("line %d: expected integers, got %r"
                         % (line_no, " ".join(parts)))


def parse_embedding(text):
    """Inverse of emit_embedding: (rotation dict, outer face index, disk
    walk or None)."""
    rotation = {}
    outer = None
    disk = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] == "rot":
            fields = _int_fields(parts[1:], line_no)
            if not fields:
                raise ParseError("line %d: rot line without a vertex" % line_no)
            if fields[0] in rotation:
                raise ParseError("line %d: duplicate rotation for %d"
                                 % (line_no, fields[0]))
            rotation[fields[0]] = tuple(fields[1:])
        elif parts[0] == "outer":
            (outer,) = _int_fields(parts[1:], line_no) or (None,)
        elif parts[0] == "disk":
            disk = tuple(_int_fields(parts[1:], line_no))
        else:
            raise ParseError("line %d: unknown directive %r" % (line_no, parts[0]))
    if outer is None:
        raise ParseError("embedding document lacks an outer line")
    return rotation, outer, disk


def build_embedding(g, text):
    """PlaneEmbedding of g from an embedding document, plus the disk walk
    when one is recorded."""
    rotation, outer, disk = parse_embedding(text)
    missing = sorted(set(g.vertices) - set(rotation))
    if missing:
        raise ParseError("embedding lacks a rotation for vertex %d" % missing[0])

    def pick_outer(faces):
        if not 0 <= outer < len(faces):
            raise EmbeddingError("outer face index %r is not one of the %d faces"
                                 % (outer, len(faces)))
        return outer

    return PlaneEmbedding(g, rotation, pick_outer), disk


def build_disk_host(g, text):
    emb, disk = build_embedding(g, text)
    if disk is None:
        raise ParseError("host reconstruction needs a disk line")
    return PartiallyDiskEmbedded(g, emb, disk)


# -- annulus index files -----------------------------------------------------


def emit_annulus_index(a):
    """Cycle lines outermost first, then rail lines in rail order."""
    lines = []
    for c in a.cycles.cycles:
        lines.append(" ".join(["c"] + [str(v) for v in c]))
    for rail in a.rails:
        lines.append(" ".join(["r"] + [str(v) for v in rail]))
    return "\n".join(lines) + "\n"


def parse_annulus_index(text):
    """Inverse of emit_annulus_index: (cycles, rails) as lists of tuples."""
    cycles = []
    rails = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        fields = tuple(_int_fields(parts[1:], line_no))
        if parts[0] == "c":
            cycles.append(fields)
        elif parts[0] == "r":
            rails.append(fields)
        else:
            raise ParseError("line %d: unknown directive %r" % (line_no, parts[0]))
    if not cycles or not rails:
        raise ParseError("annulus document needs both c and r lines")
    return cycles, rails


def build_annulus(emb, text):
    cycles, rails = parse_annulus_index(text)
    return RailedAnnulus(emb, cycles, rails)


# -- linkage files -----------------------------------------------------------


def emit_linkage(l):
    return "".join(" ".join(["p"] + [str(v) for v in path]) + "\n"
                   for path in l.paths)


def parse_linkage(text):
    paths = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] != "p":
            raise ParseError("line %d: unknown directive %r" % (line_no, parts[0]))
        paths.append(tuple(_int_fields(parts[1:], line_no)))
    if not paths:
        raise ParseError("linkage document has no p lines")
    try:
        return Linkage(paths)
    except TmhError as err:
        raise ParseError("linkage document invalid: %s" % err)


# -- pattern specs -----------------------------------------------------------


def load_patterns(spec):
    """A pattern family from a comma-separated spec: builtin names (K3,
    C4, K4, K23, K5, K33) or paths to graph files."""
    patterns = []
    for token in (t.strip() for t in spec.split(",")):
        if not token:
            continue
        if token in BUILTIN_PATTERNS:
            patterns.append(BUILTIN_PATTERNS[token]())
        else:
            if not os.path.exists(token):
                raise ParseError("pattern %r is neither builtin (%s) nor a file"
                                 % (token, ", ".join(sorted(BUILTIN_PATTERNS))))
            patterns.append(parse_graph(read_text(token)))
    if not patterns:
        raise ParseError("empty pattern spec %r" % (spec,))
    return PatternFamily(patterns)


# -- bundles and digests -----------------------------------------------------


def file_digest(path):
    return hashlib.sha256(read_text(path).encode("utf-8")).hexdigest()


class InstanceBundle:
    """The input files of one run and their content digests.

    The combined hash pins exactly what a report talks about; loading
    re-parses from disk so the digests always describe the bytes used.
    """

    __slots__ = ("graph_path", "embedding_path", "annulus_path",
                 "pattern_spec", "seed", "digests")

    def __init__(self, graph_path=None, embedding_path=None,
                 annulus_path=None, pattern_spec=None, seed=None):
        self.graph_path = graph_path
        self.embedding_path = embedding_path
        self.annulus_path = annulus_path
        self.pattern_spec = pattern_spec
        self.seed = seed
        self.digests = {}
        for key, path in (("graph", graph_path), ("embedding", embedding_path),
                          ("annulus", annulus_path)):
            if path is not None:
                self.digests[key] = file_digest(path)
        if pattern_spec is not None:
            self.digests["patterns"] = hashlib.sha256(
                pattern_spec.encode()).hexdigest()

    def bundle_hash(self):
        h = hashlib.sha256()
        for key in sorted(self.digests):
            h.update(("%s=%s\n" % (key, self.digests[key])).encode())
        h.update(("seed=%r" % (self.seed,)).encode())
        return h.hexdigest()

    def load_graph(self):
        return parse_graph(read_text(self.graph_path))

    def load_embedding(self, g):
        return build_embedding(g, read_text(self.embedding_path))

    def load_disk_host(self, g):
        return build_disk_host(g, read_text(self.embedding_path))

    def load_annulus(self, emb):
        return build_annulus(emb, read_text(self.annulus_path))

    def load_patterns(self):
        return load_patterns(self.pattern_spec)


# -- reports -----------------------------------------------------------------


def make_report(command, inputs, outcome, verification, timings):
    """The report dict in its stable field order; timings come last so a
    golden comparison can drop the one volatile section."""
    return {"command": command, "inputs": inputs, "outcome": outcome,
            "verification": verification, "timings": timings}


def emit_report(report):
    return json.dumps(report, indent=2) + "\n"


def payload_digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def trace_records(header, steps):
    """Line-delimited trace document: a header record pinning the
    instance, then one record per step with a digest of its payload."""
    lines = [json.dumps({"record": "header", **header}, sort_keys=True)]
    for s in steps:
        lines.append(json.dumps(
            {"record": "step", "kind": s["kind"], "status": s["status"],
             "digest": payload_digest(s["payload"]), "payload": s["payload"]},
            sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_trace(text):
    """Inverse of trace_records: (header dict, step list).  Verifies each
    step's payload digest so tampering surfaces as a parse error."""
    header = None
    steps = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        ln = raw.strip()
        if not ln:
            continue
        try:
            rec = json.loads(ln)
        except ValueError:
            raise ParseError("line %d: not a JSON record" % line_no)
        kind = rec.get("record")
        if kind == "header":
            if header is not None:
                raise ParseError("line %d: second header record" % line_no)
            header = {k: v for k, v in rec.items() if k != "record"}
        elif kind == "step":
            if payload_digest(rec.get("payload", {})) != rec.get("digest"):
                raise ParseError("line %d: payload digest mismatch" % line_no)
            steps.append({"kind": rec["kind"], "status": rec["status"],
                          "payload": rec["payload"]})
        else:
            raise ParseError("line %d: unknown record %r" % (line_no, kind))
    if header is None:
        raise ParseError("trace document lacks a header record")
    return header, steps


# -- DOT export --------------------------------------------------------------


def _dot_document(vertices, plain_edges, classed_edges):
    lines = ["graph G {"]
    for v in sorted(vertices):
        lines.append('  "%s";' % (v,))
    rows = [(u, v, None) for u, v in sorted(plain_edges)]
    rows.extend((u, v, cls) for (u, v), cls in sorted(classed_edges.items()))
    for u, v, cls in sorted(rows, key=lambda r: (r[0], r[1], r[2] or "")):
        if cls is None:
            lines.append('  "%s" -- "%s";' % (u, v))
        else:
            lines.append('  "%s" -- "%s" [class="%s"];' % (u, v, cls))
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(obj):
    """DOT document with stable ordering; edges carry class attributes
    naming the structure they belong to (cycles, rails, perimeter,
    linkage paths, terrain features)."""
    if isinstance(obj, Graph):
        return _dot_document(obj.vertices, obj.sorted_edges(), {})
    if isinstance(obj, Wall):
        g = obj.host_subgraph
        classed = {e: "perimeter" for e in _path_edges(obj.perimeter, closed=True)}
        plain = [e for e in g.sorted_edges() if e not in classed]
        return _dot_document(g.vertices, plain, classed)
    if isinstance(obj, RailedAnnulus):
        classed = {}
        for i, c in enumerate(obj.cycles.cycles, 1):
            for e in _path_edges(c, closed=True):
                classed[e] = "cycle%d" % i
        for j, rail in enumerate(obj.rails, 1):
            for e in _path_edges(rail):
                classed[e] = "rail%d" % j
        vertices = sorted({v for e in classed for v in e})
        return _dot_document(vertices, [], classed)
    if isinstance(obj, Linkage):
        classed = {}
        for i, path in enumerate(obj.paths, 1):
            for e in _path_edges(path):
                classed[e] = "path%d" % i
        return _dot_document(obj.vertices, [], classed)
    if isinstance(obj, Terrain):
        classed = {}
        for name, features in (("stream", obj.streams), ("river", obj.rivers),
                               ("mountain", obj.mountains),
                               ("valley", obj.valleys)):
            for f in features:
                walk = f.path if hasattr(f, "path") else f
                for e in _path_edges(walk):
                    classed[e] = name
        vertices = sorted({v for e in classed for v in e})
        return _dot_document(vertices, [], classed)
    raise TmhError("no DOT export for %r" % (type(obj).__name__,))
