"""Binary program for joint layer placement and bit-width selection, plus
export to standard LP text format for off-the-shelf MILP solvers.

Variables:
  x_{i}_{l}_{b}      layer l hosted on server i at b bits
  y_{i}_{j}          some consecutive layer pair crosses the link i -> j
  z_{i}_{j}_{l}_{b}  x_{ilb} AND (layer l+1 on j); carries the transfer
                     cost in the objective when it cannot be hung on y
                     unambiguously (multiple layers or bit choices)

x columns are emitted only for the (server, layer, bits) entries the
delay table admits (finite cp): widths in the layer's feasible set on
servers with enough storage under the table's storage model (see
core.storage_bytes). Storage feasibility is thus enforced by omission
rather than by rows. Missing links turn the corresponding dependency rows
into mutual-exclusion rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .core import ProblemInstance, Violation, storage_bytes
from .delay import DelayTable


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
    y_vars: dict[tuple[int, int], str]
    z_vars: dict[tuple[int, int, int, int], str]  # (src, dst, layer, bits)


def build_ilp(instance: ProblemInstance, table: DelayTable) -> IlpModel:
    """Materialize objective and constraints for one instance.

    Emits, per layer, an exactly-one assignment row; per server, an
    at-most-one hosting row; per consecutive layer pair and ordered server
    pair, a dependency row activating y (or forbidding the pair when the
    link is missing); and AND-linearization rows tying each z column to its
    x columns so the exported objective is exact.
    """
    M = instance.cluster.num_servers
    L = instance.model.num_layers

    cp = table.cp.tolist()
    cm = table.cm.tolist()
    pos = {b: k for k, b in enumerate(table.bit_menu)}
    x_vars: dict[tuple[int, int, int], str] = {}
    for l in range(L):
        for i in range(M):
            for b, k in pos.items():
                if cp[i][l][k] != math.inf:
                    x_vars[(i, l, b)] = f"x_{i}_{l}_{b}"
    for l in range(L):
        if not any(k[1] == l for k in x_vars):
            raise EmptyFeasibleSet(l)

    linked_pairs = sorted(
        (lk.src, lk.dst) for lk in instance.cluster.links if lk.src != lk.dst)
    y_vars: dict[tuple[int, int], str] = {}
    if L >= 2:
        y_vars = {(i, j): f"y_{i}_{j}" for (i, j) in linked_pairs}

    # cm can live directly on y only when every pair (i, j) maps to a single
    # transfer cost: exactly one consecutive layer pair and one bit choice
    # for its source layer.
    source_bits = sorted({b for (i, l, b) in x_vars if l == 0})
    use_z = L > 2 or (L == 2 and len(source_bits) > 1)

    objective: dict[str, float] = {}
    for (i, l, b), name in sorted(x_vars.items(), key=lambda kv: (kv[0][1], kv[0][0], kv[0][2])):
        objective[name] = cp[i][l][pos[b]]

    z_vars: dict[tuple[int, int, int, int], str] = {}
    if use_z:
        for (i, j) in linked_pairs:
            for l in range(L - 1):
                for b in instance.feasible_bits[l]:
                    if (i, l, b) in x_vars:
                        z_vars[(i, j, l, b)] = f"z_{i}_{j}_{l}_{b}"
                        objective[z_vars[(i, j, l, b)]] = cm[l][i][j][pos[b]]
    elif L == 2:
        b0 = source_bits[0]
        for (i, j), name in sorted(y_vars.items()):
            objective[name] = cm[0][i][j][pos[b0]]

    rows: list[Row] = []
    for l in range(L):
        coeffs = {x_vars[k]: 1.0 for k in sorted(x_vars) if k[1] == l}
        rows.append(Row(f"assign_l{l}", coeffs, "=", 1.0))
    for i in range(M):
        coeffs = {x_vars[k]: 1.0 for k in sorted(x_vars) if k[0] == i}
        if coeffs:
            rows.append(Row(f"cap_s{i}", coeffs, "<=", 1.0))

    linked = set(linked_pairs)
    for l in range(L - 1):
        for i in range(M):
            for j in range(M):
                if i == j:
                    continue
                for b in instance.feasible_bits[l]:
                    if (i, l, b) not in x_vars:
                        continue
                    for b2 in instance.feasible_bits[l + 1]:
                        if (j, l + 1, b2) not in x_vars:
                            continue
                        xa, xb = x_vars[(i, l, b)], x_vars[(j, l + 1, b2)]
                        if (i, j) in linked:
                            rows.append(Row(
                                f"dep_l{l}_s{i}_{j}_b{b}_{b2}",
                                {xa: 1.0, xb: 1.0, y_vars[(i, j)]: -1.0},
                                "<=", 1.0))
                        else:
                            rows.append(Row(
                                f"nolink_l{l}_s{i}_{j}_b{b}_{b2}",
                                {xa: 1.0, xb: 1.0}, "<=", 1.0))

    for (i, j, l, b), zname in sorted(z_vars.items()):
        xname = x_vars[(i, l, b)]
        next_cols = {x_vars[(j, l + 1, b2)]: 1.0
                     for b2 in instance.feasible_bits[l + 1]
                     if (j, l + 1, b2) in x_vars}
        rows.append(Row(f"and1_{zname}", {zname: 1.0, xname: -1.0}, "<=", 0.0))
        rows.append(Row(f"and2_{zname}", {zname: 1.0, **{k: -v for k, v in next_cols.items()}}, "<=", 0.0))
        rows.append(Row(f"and3_{zname}", {xname: 1.0, **next_cols, zname: -1.0}, "<=", 1.0))

    binaries = (
        [x_vars[k] for k in sorted(x_vars, key=lambda k: (k[1], k[0], k[2]))]
        + [y_vars[k] for k in sorted(y_vars)]
        + [z_vars[k] for k in sorted(z_vars)]
    )
    return IlpModel(objective=objective, constraints=tuple(rows),
                    binaries=tuple(binaries), x_vars=x_vars,
                    y_vars=y_vars, z_vars=z_vars)


# ---------------------------------------------------------------------------
# Plan feasibility
# ---------------------------------------------------------------------------

def check_plan_feasible(assignments, instance: ProblemInstance, *,
                        literal_storage: bool = False) -> list[Violation]:
    """Constraint violations of an assignment sequence [(server, bits), ...]."""
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
        need = storage_bytes(instance.model.layers[l], b, literal_output_factor=literal_storage)
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
    for (i, j), name in model.y_vars.items():
        if any((i, j, l) in crossing for l in range(len(assignments) - 1)):
            values[name] = 1.0
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


def _terms(coeffs: dict[str, float], order: tuple[str, ...]) -> str:
    parts = []
    for name in order:
        if name not in coeffs:
            continue
        c = coeffs[name]
        if not parts:
            parts.append(f"{_fmt(c)} {name}" if c >= 0 else f"- {_fmt(-c)} {name}")
        elif c >= 0:
            parts.append(f"+ {_fmt(c)} {name}")
        else:
            parts.append(f"- {_fmt(-c)} {name}")
    return " ".join(parts) if parts else "0 " + order[0]


def write_lp(model: IlpModel) -> str:
    """Deterministic LP-format text for the model (golden-test stable)."""
    order = model.binaries
    lines = ["Minimize", f" obj: {_terms(model.objective, order)}", "Subject To"]
    for row in model.constraints:
        lines.append(f" {row.name}: {_terms(row.coeffs, order)} {row.relation} {_fmt(row.rhs)}")
    lines.append("Binary")
    for name in order:
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
