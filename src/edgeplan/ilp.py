"""Binary program for joint layer placement and bit-width selection, plus
export to standard LP text format for off-the-shelf MILP solvers.

Variables:
  x_{i}_{l}_{b}      layer l hosted on server i at b bits
  z_{i}_{j}_{l}_{b}  layer l on server i at b bits hands its output to
                     layer l+1 on server j; carries the transfer cost

The model is a flow through the layers. x columns are emitted only for
the (server, layer, bits) entries the delay table admits (finite cp):
widths in the layer's feasible set on servers with enough storage under
the table's storage model (see core.storage_bytes). A z column exists
only where its x column exists, j != i, the link i -> j exists (finite
cm) and server j can host layer l+1. Storage, widths and missing links
are thus enforced by omission rather than by rows. Rows:

  assign_l{l}         sum over (i, b) of x[i,l,b] = 1
  cap_s{i}            sum over (l, b) of x[i,l,b] <= 1
  out_l{l}_s{i}_b{b}  sum over j of z[i,j,l,b] - x[i,l,b] = 0
  in_l{l}_s{j}        sum over (i, b) of z[i,j,l,b] - sum over b' of x[j,l+1,b'] = 0

At any integral x the flow rows leave exactly one z per layer boundary
at 1 (the one from layer l's host to layer l+1's host), so declaring z
binary is exact and the LP needs no continuous section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# storage_bytes, the storage formula the x columns obey, importable from here
from .core import ProblemInstance, Violation, storage_bytes
from .delay import DelayOptions, DelayTable


class EmptyFeasibleSet(ValueError):
    """Some layer has no (server, bits) column at all."""

    def __init__(self, layer: int):
        self.layer = layer
        super().__init__(f"layer {layer} has no feasible (server, bits) placement")


@dataclass(frozen=True)
class Row:
    name: str
    coeffs: dict[str, float]
    relation: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class IlpModel:
    objective: dict[str, float]
    constraints: tuple[Row, ...]
    binaries: tuple[str, ...]  # declaration order, also the LP file order
    x_vars: dict[tuple[int, int, int], str]  # (server, layer, bits)
    z_vars: dict[tuple[int, int, int, int], str]  # (src, dst, layer, bits)


def build_ilp(instance: ProblemInstance, table: DelayTable) -> IlpModel:
    """Materialize the flow model of one instance.

    Emits, per layer, an exactly-one assignment row; per server, an
    at-most-one hosting row; per x column below the last layer, an
    out-flow row handing it to exactly one next host; and per layer
    boundary and next host, an in-flow row matching the flow that arrives
    to the x columns that receive it. Columns: x ordered by (layer,
    server, bits), then z ordered by (src, dst, layer, bits).
    """
    M, L, _ = table.cp.shape
    cp = table.cp.tolist()
    cm = table.cm.tolist()
    menu = table.bit_menu

    # per layer, the admissible (server, bit position, x name) in column order
    placements: list[list[tuple[int, int, str]]] = []
    x_vars: dict[tuple[int, int, int], str] = {}
    objective: dict[str, float] = {}
    rows: list[Row] = []
    hosted: dict[int, dict[str, float]] = {}
    for l in range(L):
        here = [(i, k, f"x_{i}_{l}_{menu[k]}") for i in range(M)
                for k in range(len(menu)) if cp[i][l][k] != math.inf]
        if not here:
            raise EmptyFeasibleSet(l)
        placements.append(here)
        for i, k, name in here:
            x_vars[(i, l, menu[k])] = name
            objective[name] = cp[i][l][k]
            hosted.setdefault(i, {})[name] = 1.0
        rows.append(Row(f"assign_l{l}", {name: 1.0 for _, _, name in here}, "=", 1.0))
    rows += [Row(f"cap_s{i}", hosted[i], "<=", 1.0) for i in sorted(hosted)]

    z_vars: dict[tuple[int, int, int, int], str] = {}
    for l in range(L - 1):
        inflow: dict[int, dict[str, float]] = {}  # next host -> in-flow row
        for j, _, name in placements[l + 1]:
            inflow.setdefault(j, {})[name] = -1.0
        for i, k, xname in placements[l]:
            b = menu[k]
            out = {xname: -1.0}
            for j, into in inflow.items():
                c = cm[l][i][j][k]
                if j != i and c != math.inf:
                    name = z_vars[(i, j, l, b)] = f"z_{i}_{j}_{l}_{b}"
                    objective[name] = c
                    out[name] = into[name] = 1.0
            rows.append(Row(f"out_l{l}_s{i}_b{b}", out, "=", 0.0))
        rows += [Row(f"in_l{l}_s{j}", into, "=", 0.0) for j, into in inflow.items()]

    binaries = ([name for here in placements for _, _, name in here]
                + [z_vars[key] for key in sorted(z_vars)])
    return IlpModel(objective=objective, constraints=tuple(rows),
                    binaries=tuple(binaries), x_vars=x_vars, z_vars=z_vars)


# ---------------------------------------------------------------------------
# Plan feasibility
# ---------------------------------------------------------------------------

def check_plan_feasible(assignments, instance: ProblemInstance,
                        options: DelayOptions = DelayOptions()) -> list[Violation]:
    """Constraint violations of an assignment sequence [(server, bits), ...],
    storage under ``options.storage``."""
    out: list[Violation] = []
    L = instance.model.num_layers
    M = instance.cluster.num_servers
    if len(assignments) != L:
        out.append(Violation("WrongLength", f"{len(assignments)} assignments for {L} layers"))
        return out
    servers = [a[0] for a in assignments]
    if len(set(servers)) != len(servers):
        out.append(Violation("DuplicateServer", f"servers {servers} reuse a host"))
    for l, (i, b) in enumerate(assignments):
        if not (0 <= i < M):
            out.append(Violation("UnknownServer", f"layer {l} on server {i}"))
            continue
        if b not in instance.feasible_bits[l]:
            out.append(Violation("InfeasibleBits", f"layer {l} at {b} bits (allowed {instance.feasible_bits[l]})"))
        need = options.bytes_needed(instance.model.layers[l], b)
        cap = instance.cluster.servers[i].storage_capacity
        if need > cap:
            out.append(Violation("StorageOverflow", f"layer {l} needs {need} B, server {i} has {cap} B"))
    for l in range(L - 1):
        i, j = assignments[l][0], assignments[l + 1][0]
        if i != j and instance.cluster.link(i, j) is None:
            out.append(Violation("MissingLink", f"layers {l}->{l + 1} need link {i}->{j}"))
    return out


def substitute(model: IlpModel, assignments) -> tuple[dict[str, float], float, list[str]]:
    """Plug an assignment into the model: variable values, objective value,
    and names of violated rows. Used to cross-check the export against the
    in-process solvers."""
    values = {name: 0.0 for name in model.binaries}
    placement = {l: (i, b) for l, (i, b) in enumerate(assignments)}
    for (i, l, b), name in model.x_vars.items():
        if placement.get(l) == (i, b):
            values[name] = 1.0
    crossing = set()
    for l in range(len(assignments) - 1):
        i, j = assignments[l][0], assignments[l + 1][0]
        if i != j:
            crossing.add((i, j, l))
    for (i, j, l, b), name in model.z_vars.items():
        if placement.get(l) == (i, b) and (i, j, l) in crossing:
            values[name] = 1.0
    obj = sum(c * values[v] for v, c in model.objective.items())
    violated = []
    for row in model.constraints:
        lhs = sum(c * values[v] for v, c in row.coeffs.items())
        ok = (lhs <= row.rhs + 1e-9 if row.relation == "<=" else
              lhs >= row.rhs - 1e-9 if row.relation == ">=" else
              abs(lhs - row.rhs) <= 1e-9)
        if not ok:
            violated.append(row.name)
    return values, obj, violated


# ---------------------------------------------------------------------------
# LP text format
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def _terms(coeffs: dict[str, float], column: dict[str, int]) -> str:
    """One expression, its terms in column order; column maps each name
    to its declaration position."""
    parts = []
    for name in sorted(coeffs, key=column.__getitem__):
        c = coeffs[name]
        if not parts:
            parts.append(f"{_fmt(c)} {name}" if c >= 0 else f"- {_fmt(-c)} {name}")
        elif c >= 0:
            parts.append(f"+ {_fmt(c)} {name}")
        else:
            parts.append(f"- {_fmt(-c)} {name}")
    return " ".join(parts) if parts else "0 " + next(iter(column))


def write_lp(model: IlpModel) -> str:
    """Deterministic LP-format text for the model (golden-test stable).
    Each expression sorts only its own terms through one column-index
    map, so the cost follows the nonzeros, not rows x columns."""
    column = {name: k for k, name in enumerate(model.binaries)}
    lines = ["Minimize", f" obj: {_terms(model.objective, column)}", "Subject To"]
    for row in model.constraints:
        lines.append(f" {row.name}: {_terms(row.coeffs, column)} {row.relation} {_fmt(row.rhs)}")
    lines.append("Binary")
    for name in model.binaries:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_lp(model: IlpModel, path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(write_lp(model))


@dataclass(frozen=True)
class ParsedLp:
    objective: dict[str, float]
    constraints: tuple[Row, ...]
    binaries: tuple[str, ...]


def parse_lp(text: str) -> ParsedLp:
    """Read back the LP subset emitted by write_lp (round-trip check)."""
    objective: dict[str, float] = {}
    rows: list[Row] = []
    binaries: list[str] = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "subject to", "binary", "end"):
            section = low
            continue
        if section == "minimize":
            _, expr = line.split(":", 1)
            objective.update(_parse_terms(expr))
        elif section == "subject to":
            name, rest = line.split(":", 1)
            for rel in ("<=", ">=", "="):
                if rel in rest:
                    expr, rhs = rest.rsplit(rel, 1)
                    rows.append(Row(name.strip(), _parse_terms(expr), rel, float(rhs)))
                    break
            else:
                raise ValueError(f"constraint without relation: {line}")
        elif section == "binary":
            binaries.append(line)
    return ParsedLp(objective=objective, constraints=tuple(rows),
                    binaries=tuple(binaries))


def _parse_terms(expr: str) -> dict[str, float]:
    tokens = expr.split()
    coeffs: dict[str, float] = {}
    sign = 1.0
    pending: Optional[float] = None
    for tok in tokens:
        if tok == "+":
            sign, pending = 1.0, None
        elif tok == "-":
            sign, pending = -1.0, None
        else:
            try:
                pending = float(tok)
            except ValueError:
                coeff = sign * (pending if pending is not None else 1.0)
                coeffs[tok] = coeffs.get(tok, 0.0) + coeff
                sign, pending = 1.0, None
    return coeffs


def model_as_parsed(model: IlpModel) -> ParsedLp:
    """Projection of an IlpModel onto the fields the LP file carries."""
    return ParsedLp(objective=dict(model.objective),
                    constraints=model.constraints,
                    binaries=model.binaries)
