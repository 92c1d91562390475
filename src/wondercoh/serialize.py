"""Canonical serialisation of cohomology tables.

JSON output follows a fixed schema; dimensions are decimal strings so
consumers never have to parse big integers.  All orderings are inherited
from the canonical table order, so identical inputs serialise to
identical bytes.

`table_to_json` writes the README's "JSON schema" from pre-indented
templates, calling `json.dumps` only for the variety name: the bytes of
`json.dumps(table_to_dict(...), indent=2, separators=(",", ": "))` plus a
newline, with the test reference `tests/test_helpers.table_to_dict`.
Witness and constituent objects have one `%` template per shape, that is
per length of mu or of the highest weight, built once and cached; JSON
braces are literal in them.  Each object is one `%` on one tuple of its
fields, which `%s` writes as `str(x)`; a witness's J array goes in as one
field, its JSON text, made once per J and cached, so one template serves
every |J|.  Both operators read their template again on every call, but
`str.format` parses each `{}` as a field (name, conversion, spec), which
makes it nearly twice as slow as `%` on the same one-witness template.  A
constituent with exactly one witness, the usual case at depth, is one `%`
in all: its template is the constituent template with the witness
template spliced in as its one-element array.  The weights of a degree
group share one length, so each group looks its templates up once
instead of per constituent.  With an indent, `json.dumps` runs CPython's
pure-Python encoder, about four times slower than the templates on deep
weights.
"""

from __future__ import annotations

import functools
import json
from typing import Sequence

from .cohomology import CohomologyTable, Constituent
from .varieties import WonderfulVariety


#: key indentation of group, constituent and witness objects
_GROUP, _CONSTITUENT, _WITNESS = " " * 6, " " * 10, " " * 14


def _array(out: list[str], parts: Sequence[str], indent: str) -> list[str]:
    """Append a JSON array of pre-indented parts, closed at `indent`, to
    out, and return out."""
    if not parts:
        out.append("[]")
        return out
    out.append("[\n")
    for part in parts:
        out += (part, ",\n")
    out[-1] = "\n" + indent + "]"
    return out


def _items(parts: Sequence[str], indent: str) -> str:
    """A JSON array of pre-indented parts, closed at `indent`."""
    return "".join(_array([], parts, indent))


def _ints(values: Sequence[int], indent: str) -> str:
    """An int array, one entry per line as json.dumps(indent=2) writes it."""
    inner = indent + "  "
    return _items([f"{inner}{x}" for x in values], indent)


class _JText(dict):
    """J -> the JSON text of a witness's J array, at the witness
    indentation, made on first use.  The writer reads it once per witness,
    and a subscript costs about half a `functools.cache` call."""

    def __missing__(self, J: tuple[int, ...]) -> str:
        text = self[J] = _ints(J, _WITNESS)
        return text


_j_json = _JText()


@functools.cache
def _witness_template(nmu: int) -> str:
    """`%` template of a witness object with nmu entries in mu; its fields
    are the JSON text of J (`_j_json`), then mu, then the length."""
    return (
        "            {\n"
        '              "J": %s,\n'
        f'              "mu": {_ints(["%s"] * nmu, _WITNESS)},\n'
        '              "length": %s\n'
        "            }"
    )


@functools.cache
def _constituent_template(nhw: int) -> str:
    """`%` template of a constituent object with nhw entries in its highest
    weight; its fields are the weight, the multiplicity and the witness
    array."""
    return (
        "        {\n"
        f'          "highest_weight": {_ints(["%s"] * nhw, _CONSTITUENT)},\n'
        '          "multiplicity": %s,\n'
        '          "witnesses": %s\n'
        "        }"
    )


@functools.cache
def _single_witness_template(nhw: int) -> str:
    """`%` template of a constituent object with exactly one witness: the
    constituent template with that witness's template as its array; its
    fields are the weight, the multiplicity, the JSON text of J, mu and the
    length."""
    head, tail = _constituent_template(nhw).rsplit("%s", 1)
    return head + _items([_witness_template(nhw)], _CONSTITUENT) + tail


def _constituents_json(constituents: Sequence[Constituent], with_witnesses: bool) -> list[str]:
    """The constituent objects of one degree group, each one `%` of its
    template on one tuple of its fields; the group looks its templates up
    once (see the module docstring)."""
    if not constituents:
        return []
    n = len(constituents[0].highest_weight)
    plain = _constituent_template(n)
    if not with_witnesses:
        return [plain % (*hw, multiplicity, "[]") for hw, multiplicity, _, _ in constituents]
    single, witness = _single_witness_template(n), _witness_template(n)
    out = []
    for hw, multiplicity, _, wits in constituents:
        if len(wits) == 1:
            (t,) = wits
            out.append(single % (*hw, multiplicity, _j_json[t.J], *t.mu, t.length))
        else:
            witnesses = [witness % (_j_json[t.J], *t.mu, t.length) for t in wits]
            out.append(plain % (*hw, multiplicity, _items(witnesses, _CONSTITUENT)))
    return out


def table_to_json(
    X: WonderfulVariety,
    table: CohomologyTable,
    lam_coords: Sequence[int],
    with_witnesses: bool = True,
) -> str:
    """json.dumps(table_to_dict(...), indent=2, separators=(",", ": ")) plus
    a newline (the README's JSON schema; table_to_dict is in tests/test_helpers.py),
    built as one list of pieces and joined once."""
    out = [
        "{\n"
        f'  "variety": {json.dumps(X.name)},\n'
        f'  "lambda": {_ints([int(x) for x in lam_coords], "  ")},\n'
        f'  "N": {X.dimension_N},\n'
        '  "groups": '
    ]
    sep = "[\n"
    for g in table.groups:
        out += (
            sep,
            "    {\n"
            f'      "degree": {g.degree},\n'
            f'      "dimension": "{g.dimension}",\n'
            '      "constituents": ',
        )
        _array(out, _constituents_json(g.constituents, with_witnesses), _GROUP)
        out.append("\n    }")
        sep = ",\n"
    out.append("\n  ]\n}\n" if table.groups else "[]\n}\n")
    return "".join(out)


def table_to_text(
    X: WonderfulVariety,
    table: CohomologyTable,
    lam_coords: Sequence[int],
    with_witnesses: bool = True,
) -> str:
    lines = [
        f"{X.name}, lambda = {list(lam_coords)} (pic coordinates), N = {X.dimension_N}"
    ]
    if not table.groups:
        lines.append("all cohomology groups vanish")
    for g in table.groups:
        lines.append(f"H^{g.degree}: dimension {g.dimension}")
        for c in g.constituents:
            mult = f" x{c.multiplicity}" if c.multiplicity > 1 else ""
            lines.append(
                f"  L({list(c.highest_weight)}){mult}  dim {c.dimension}"
            )
            for t in c.witnesses if with_witnesses else ():
                lines.append(
                    f"    witness: J = {list(t.J)}, mu = {list(t.mu)}, l(mu) = {t.length}"
                )
    return "\n".join(lines) + "\n"


def table_to_csv(
    X: WonderfulVariety, table: CohomologyTable, lam_coords: Sequence[int]
) -> str:
    rows = ["degree,highest_weight,multiplicity,dimension"]
    for g in table.groups:
        for c in g.constituents:
            hw = " ".join(str(x) for x in c.highest_weight)
            rows.append(f"{g.degree},{hw},{c.multiplicity},{c.dimension}")
    return "\n".join(rows) + "\n"
