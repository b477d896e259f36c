"""Graphviz rendering of documents.

Produces plain ``dot`` source: every complex becomes a cluster whose
object nodes sit in a row, transition objects hang between consecutive
degrees with their two legs drawn in the two line styles (dashed for the
vertical leg, solid for the horizontal one).  Objects with nonzero
homology are highlighted.  Levelwise edges of named morphisms connect
the clusters: horizontal morphisms in blue, vertical ones in red, chain
maps with one edge bundle of each colour.
"""

from __future__ import annotations

from .chains import ChainComplex
from .documents import Document
from .homology import homology_size

__all__ = ["render_dot"]


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def _emit_complex(doc: Document, name: str, cx: ChainComplex, out: list[str]) -> None:
    inst = doc.inst
    out.append(f"  subgraph {_quote('cluster_' + name)} {{")
    out.append(f"    label={_quote(name)};")
    out.append("    color=gray;")
    for i in cx.degrees():
        node = _quote(f"{name}.X{i}")
        label = _quote(f"{name}[{i}]\\n{inst.obj_label(cx.obj(i))}")
        extra = ""
        if homology_size(cx, i) > 0:
            extra = ' style=filled fillcolor="gold"'
        out.append(f"    {node} [shape=box label={label}{extra}];")
    for i in cx.transition_degrees():
        t = cx.transition(i)
        node = _quote(f"{name}.T{i}")
        label = _quote(f"{name}|{i}|\\n{inst.obj_label(t.obj)}")
        out.append(f"    {node} [shape=oval label={label} fontsize=10];")
        out.append(f"    {node} -> {_quote(f'{name}.X{i}')} [style=dashed];")
        out.append(f"    {node} -> {_quote(f'{name}.X{i - 1}')} [style=solid];")
    out.append("  }")


def _level_edges(
    doc: Document,
    src_name: str,
    tgt_name: str,
    src: ChainComplex,
    color: str,
    style: str,
    tag: str,
    out: list[str],
) -> None:
    for i in src.degrees():
        a = _quote(f"{src_name}.X{i}")
        b = _quote(f"{tgt_name}.X{i}")
        attrs = f'color="{color}" style={style} constraint=false'
        if i == src.hi:
            attrs += f" label={_quote(tag)} fontcolor={_quote(color)} fontsize=10"
        out.append(f"  {a} -> {b} [{attrs}];")


def render_dot(doc: Document) -> str:
    """The document as Graphviz ``dot`` source text."""
    names = {id(cx): n for n, cx in doc.complexes}

    def name_of(cx: ChainComplex) -> str | None:
        if id(cx) in names:
            return names[id(cx)]
        for n, known in doc.complexes:
            if known == cx:
                return n
        return None

    out = [
        "digraph document {",
        "  rankdir=BT;",
        '  node [fontname="Helvetica"];',
    ]
    for name, cx in doc.complexes:
        _emit_complex(doc, name, cx, out)
    for mors, color, style in ((doc.hors, "blue", "solid"), (doc.vers, "red", "dashed")):
        for name, f in mors:
            src, tgt = name_of(f.source), name_of(f.target)
            if src and tgt:
                _level_edges(doc, src, tgt, f.source, color, style, name, out)
    for name, f in doc.maps:
        mid = name_of(f.middle)
        src = name_of(f.source)
        tgt = name_of(f.target)
        if mid and src:
            _level_edges(doc, mid, src, f.middle, "red", "dashed", f"{name} back", out)
        if mid and tgt:
            _level_edges(doc, mid, tgt, f.middle, "blue", "solid", f"{name} front", out)
    out.append("}")
    return "\n".join(out) + "\n"
