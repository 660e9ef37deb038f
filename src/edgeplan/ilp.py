"""Binary program for layer placement, plus export to standard LP text
format for off-the-shelf MILP solvers.

Variables, with b (b') the width the delay table keeps for layer l (l+1):
  x_{i}_{l}_{b}      layer l hosted on server i at b bits
  z_{i}_{j}_{l}_{b}  layer l on server i at b bits hands its output to
                     layer l+1 on server j; carries the transfer cost

The model is a flow through the layers. x_{i}_{l}_{b} costs the delay
table's cp[l, i] and z_{i}_{j}_{l}_{b} its cm[l, i, j]; build_ilp reads
both in that stored order. Each layer has one width, the smallest its
filter kept: any other width is dominated, never faster and never needing
less storage (see build_delay_table), so its columns could not change the
optimum and are left out. x columns are emitted only for the entries the
table admits (finite cp): servers with enough storage under the table's
DelayOptions.bytes_needed. A z column exists only where its x column
exists, cm is finite (a link i -> j exists, so j != i, since no server
links to itself) and server j can host layer l+1. Storage,
widths, missing links and consecutive repeats are thus enforced by
omission rather than by rows. Rows:

  assign_l{l}         sum over i of x[i,l,b] = 1
  cap_s{i}            sum over l of x[i,l,b] <= 1
  out_l{l}_s{i}_b{b}  sum over j of z[i,j,l,b] - x[i,l,b] = 0
  in_l{l}_s{j}        sum over i of z[i,j,l,b] - x[j,l+1,b'] = 0

At any integral x the flow rows leave exactly one z per layer boundary
at 1 (the one from layer l's host to layer l+1's host), so declaring z
binary is exact and the LP needs no continuous section.

Columns are declared once, in the order the LP file lists them: x by
(layer, server), then z by (layer, src, dst). Every row and the objective
hold their terms in that order, so write_lp writes them as stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# storage_bytes and check_plan_feasible are re-exported: perfbench imports
# them from here
from .core import ProblemInstance, storage_bytes
from .delay import DelayTable, check_plan_feasible


@dataclass(frozen=True)
class Row:
    name: str
    coeffs: dict[str, float]  # terms in column order
    relation: str  # "<=" or "="
    rhs: float


@dataclass(frozen=True)
class IlpModel:
    """What the LP file holds. The objective has one term per column, in
    column order, so its keys are the binaries too."""
    objective: dict[str, float]
    constraints: tuple[Row, ...]
    binaries: tuple[str, ...]  # column order, also the LP file order


def _x(i: int, l: int, b: int) -> str:
    return f"x_{i}_{l}_{b}"


def _z(i: int, j: int, l: int, b: int) -> str:
    return f"z_{i}_{j}_{l}_{b}"


def build_ilp(instance: ProblemInstance, table: DelayTable) -> IlpModel:
    """Materialize the flow model of one instance.

    Emits, per layer, an exactly-one assignment row; per server, an
    at-most-one hosting row; per x column below the last layer, an
    out-flow row handing it to exactly one next host; and per layer
    boundary and next host, an in-flow row matching the flow that arrives
    to the x column that receives it, all in column order. ValueError
    naming the layer when some layer has no (server, bits) column at all.
    """
    if (empty := table.unplaceable_layer()) is not None:
        raise ValueError(f"layer {empty} has no feasible (server, bits) placement")
    M = table.cp.shape[1]
    cp, cm = table.cp.tolist(), table.cm.tolist()

    # per layer, the admissible (server, x name) in column order
    placements: list[list[tuple[int, str]]] = []
    objective: dict[str, float] = {}
    rows: list[Row] = []
    hosted: dict[int, dict[str, float]] = {i: {} for i in range(M)}
    for l, b in enumerate(table.widths):
        here = [(i, _x(i, l, b)) for i in range(M) if cp[l][i] != math.inf]
        placements.append(here)
        for i, name in here:
            objective[name] = cp[l][i]
            hosted[i][name] = 1.0
        rows.append(Row(f"assign_l{l}", {name: 1.0 for _, name in here}, "=", 1.0))
    rows += [Row(f"cap_s{i}", row, "<=", 1.0) for i, row in hosted.items() if row]

    for l, b in enumerate(table.widths[:-1]):
        # next host -> in-flow row
        inflow = {j: {name: -1.0} for j, name in placements[l + 1]}
        for i, xname in placements[l]:
            out = {xname: -1.0}
            for j, into in inflow.items():
                c = cm[l][i][j]
                if c != math.inf:
                    name = _z(i, j, l, b)
                    objective[name] = c
                    out[name] = into[name] = 1.0
            rows.append(Row(f"out_l{l}_s{i}_b{b}", out, "=", 0.0))
        rows += [Row(f"in_l{l}_s{j}", into, "=", 0.0) for j, into in inflow.items()]
    return IlpModel(objective=objective, constraints=tuple(rows), binaries=tuple(objective))


def substitute(model: IlpModel, assignments) -> tuple[dict[str, float], float, list[str]]:
    """Plug an assignment into the model: variable values, objective value,
    and names of violated rows. Used to cross-check the export against the
    in-process solvers."""
    values = dict.fromkeys(model.binaries, 0.0)
    on = [_x(i, l, b) for l, (i, b) in enumerate(assignments)]
    on += [_z(i, j, l, b)
           for l, ((i, b), (j, _)) in enumerate(zip(assignments, assignments[1:]))]
    for name in on:
        if name in values:  # a placement the model has no column for stays 0
            values[name] = 1.0
    obj = sum(c * values[v] for v, c in model.objective.items())
    violated = []
    for row in model.constraints:
        # every coefficient is +-1.0 and every value 0.0 or 1.0: the sum is
        # a small integer, computed exactly
        lhs = sum(c * values[v] for v, c in row.coeffs.items())
        if not (lhs <= row.rhs if row.relation == "<=" else lhs == row.rhs):
            violated.append(row.name)
    return values, obj, violated


# ---------------------------------------------------------------------------
# LP text format
# ---------------------------------------------------------------------------

def _terms(coeffs: dict[str, float]) -> str:
    """One expression, its terms as stored: build_ilp adds them in column
    order. Every expression of a model has a term."""
    return " ".join(f"+ {c!r} {name}" if c >= 0 else f"- {-c!r} {name}"
                    for name, c in coeffs.items()).removeprefix("+ ")


def write_lp(model: IlpModel) -> str:
    """Deterministic LP-format text for the model (golden-test stable)."""
    lines = ["Minimize", f" obj: {_terms(model.objective)}", "Subject To"]
    lines += [f" {row.name}: {_terms(row.coeffs)} {row.relation} {row.rhs!r}"
              for row in model.constraints]
    lines += ["Binary", *(f" {name}" for name in model.binaries), "End"]
    return "\n".join(lines) + "\n"


def parse_lp(text: str) -> IlpModel:
    """Read back what write_lp writes (round-trip check): `<=` and `=`
    rows, a coefficient on every term, and no comment lines."""
    objective: dict[str, float] = {}
    rows: list[Row] = []
    binaries: list[str] = []
    section = None
    for line in text.splitlines():
        line = line.strip()
        if line in ("Minimize", "Subject To", "Binary", "End"):
            section = line
        elif section == "Minimize":
            objective = _parse_terms(line.split(":", 1)[1])
        elif section == "Subject To":
            name, rest = line.split(":", 1)
            rel = "<=" if "<=" in rest else "="
            expr, rhs = rest.rsplit(rel, 1)
            rows.append(Row(name.strip(), _parse_terms(expr), rel, float(rhs)))
        elif section == "Binary":
            binaries.append(line)
    return IlpModel(objective=objective, constraints=tuple(rows), binaries=tuple(binaries))


def _parse_terms(expr: str) -> dict[str, float]:
    """Terms as _terms writes them: `[- ]c name`, then `+ c name` or
    `- c name`."""
    tokens = expr.split()
    if tokens[0] != "-":
        tokens.insert(0, "+")
    return {name: -float(c) if sign == "-" else float(c)
            for sign, c, name in zip(tokens[::3], tokens[1::3], tokens[2::3])}


def model_as_parsed(model: IlpModel) -> IlpModel:
    """The model itself, as parse_lp returns an IlpModel; kept because
    perfbench/checks.py compares a reparsed file with it."""
    return model
