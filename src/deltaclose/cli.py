"""Command-line interface.

Every command prints one JSON document to standard output with a
``certificates`` block naming each checked property and its status.  Output
is deterministic: keys sorted, scalars as exact "p/q" strings, fixed list
orders.  Exit codes (``_EXIT_CODES``): 0 success / verified, 2 malformed
input, 3 inconsistent system, 4 density gate (dense needed or dense
forbidden), 5 subspace precondition not invariant, 1 internal failure, an
ill-conditioned fit or a failed certificate.  A certificate fails when it
reads "fail": ``_emit`` returns 1 for any such value of ``certificates`` or
of the top-level ``identity`` of ``op expand`` and ``op divide``, and
``verify grid`` for its one residual check.  The counterexample of ``construct prop7`` is
certified by ``construct.certify_counterexample``.

Each subcommand takes only the shared options its handler reads (see
``build_parser``), so an option it would ignore is a usage error (exit 2),
and a tolerance that is not finite and >= 0 is malformed input (exit 2).
JSON arguments are read by ``_load_json`` (inline text, ``@path`` or a
``.json`` path), integer fields by ``jsonio.parse_int``, rationals by
``jsonio.parse_frac`` alone, and every document is written by ``_emit``
except the CSV grid of ``verify grid --out``.

``main`` builds the argument parser on its first call and reuses it for
later calls in the same process; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import jsonio
from .construct import (
    CORNER_STEPS,
    binomial_difference,
    certify_counterexample,
    corner_witness,
    make_counterexample,
    make_fm,
    make_triangle_wave,
    mesh_points,
    shifted_values,
)
from .errors import (
    DeltaCloseError,
    DenseGroup,
    IllConditionedFit,
    Inconsistent,
    MalformedInput,
    NotDense,
    PreconditionNotInvariant,
)
from .groups import (
    build_frame,
    dual_witness,
    frame_on_hyperplane,
    group_closure,
    verify_orthogonality,
    verify_reconstruction,
    witness_checks,
)
from .opalg import (
    TranslationPolynomial,
    divisibility_factor,
    telescope_expansion,
    telescope_pigeonhole_ok,
    telescope_total,
)
from .scalar import NumberField, rational_field
from .solver import (
    DifferenceSystem,
    fit_coset_slices,
    polynomial_kernel,
    solve_difference_system,
)
from .subspace import invariant_closure, saturate


def _load_json(value: str):
    """Inline JSON, or the contents of a file when prefixed with @ or when
    the value names an existing .json file.  A file that cannot be read,
    text that is not JSON, and JSON nested too deeply for the reader's
    recursion raise MalformedInput."""
    path = value[1:] if value.startswith("@") else None
    if path is None and value.endswith(".json") and os.path.exists(value):
        path = value
    try:
        if path is None:
            return json.loads(value)
        with open(path) as fh:
            return json.loads(fh.read())
    except OSError as e:
        raise MalformedInput(f"cannot read {path!r}: {e.strerror or e}") from e
    except ValueError as e:   # not JSON, undecodable bytes, an integer past int()'s limit
        where = ("argument is neither a file nor JSON" if path is None
                 else f"file {path!r} is not JSON")
        raise MalformedInput(f"{where}: {e}") from e
    except RecursionError as e:
        raise MalformedInput(f"argument nests too deeply to read: {e}") from e


def _decode_entries(raw, what: str, decode) -> list:
    """``decode`` of each object in the JSON list ``raw``.  An entry that is
    not an object, lacks a key or holds a malformed value raises
    MalformedInput naming the entry."""
    if not isinstance(raw, list):
        raise MalformedInput(f"{what} must be a JSON list")
    out = []
    for i, entry in enumerate(raw):
        try:
            if not isinstance(entry, dict):
                raise TypeError("not a JSON object")
            out.append(decode(entry))
        except KeyError as e:
            raise MalformedInput(f"{what} entry {i} {json.dumps(entry)} lacks key {e}") from e
        except (TypeError, ValueError, MalformedInput) as e:
            raise MalformedInput(f"{what} entry {i} {json.dumps(entry)}: {e}") from e
    return out


def _field_from_args(args) -> NumberField:
    """The field of ``--field``, the one object ``jsonio.decode_field``
    keeps for that declaration in this process, else a new plain Q."""
    if args.field:
        return jsonio.decode_field(_load_json(args.field))
    return rational_field()


def _scalar_display(x) -> str:
    coords = x.coords
    if all(c == 0 for c in coords[1:]):
        return jsonio.frac_str(coords[0])
    bits = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        if i == 0:
            bits.append(jsonio.frac_str(c))
        elif i == 1:
            bits.append(f"{jsonio.frac_str(c)}*theta")
        else:
            bits.append(f"{jsonio.frac_str(c)}*theta^{i}")
    return " + ".join(bits) if bits else "0/1"


def _vector_display(v):
    if len(v) == 1:
        return _scalar_display(v[0])
    return [_scalar_display(x) for x in v]


def _emit(args, doc) -> int:
    """Print ``doc`` (and write it to ``--out``); the exit code is 1 when a
    certificate, or the top-level ``identity``, reads "fail", else 0."""
    text = jsonio.dumps(doc)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    verdicts = [*doc.get("certificates", {}).values(), doc.get("identity")]
    return 1 if "fail" in verdicts else 0


def _status(ok: bool) -> str:
    return "exact-pass" if ok else "fail"


# -- group closure -----------------------------------------------------------

def cmd_group_closure(args) -> int:
    field = _field_from_args(args)
    gens_raw = _load_json(args.generators)
    if not isinstance(gens_raw, list) or not gens_raw:
        raise MalformedInput("generators must be a non-empty JSON list")
    gens = jsonio.decode_vectors(field, gens_raw, "generators")
    c = group_closure(gens, field=field)
    witness = dual_witness(gens, field)
    consistent = (witness is None) == c.dense
    if witness is not None:
        consistent = consistent and witness_checks(witness[0], gens, field)
    doc = jsonio.manifest(field, {"closure": jsonio.encode_closure(c)}, {
        "reconstruction": _status(verify_reconstruction(c)),
        "orthogonality": _status(verify_orthogonality(c)),
        "duality_witness": _status(consistent),
    })
    doc["dense"] = c.dense
    doc["V"] = [_vector_display(v) for v in c.v_basis]
    doc["Lambda"] = [_vector_display(v) for v in c.lambda_basis]
    return _emit(args, doc)


# -- operator commands ---------------------------------------------------------

def cmd_op_expand(args) -> int:
    field = _field_from_args(args)
    steps = jsonio.decode_vectors(field, _load_json(args.steps), "steps")
    powers_raw = _load_json(args.powers)
    if not isinstance(powers_raw, list):
        raise MalformedInput(f"powers must be a JSON list, got {json.dumps(powers_raw)}")
    powers = [jsonio.parse_int(m, f"powers entry {i}") for i, m in enumerate(powers_raw)]
    summands = telescope_expansion(field, steps, powers, args.N)
    total = telescope_total(field, steps, powers, args.N)
    acc = TranslationPolynomial.zero(field, len(steps[0]))
    for s in summands:
        acc = acc + s.op
    identity_ok = acc == total
    doc = jsonio.manifest(field, {
        "summands": [{"alpha": list(s.alpha), "op": jsonio.encode_op(s.op)}
                     for s in summands],
        "total": jsonio.encode_op(total),
    }, {
        "pigeonhole": _status(telescope_pigeonhole_ok(summands, args.N, len(steps))),
    })
    doc["identity"] = "exact-pass" if identity_ok else "fail"
    return _emit(args, doc)


def cmd_op_divide(args) -> int:
    field = _field_from_args(args)
    h = jsonio.decode_vector(field, _load_json(args.step))
    Q = divisibility_factor(field, h, args.p, args.n)
    dim = len(h)
    lhs = TranslationPolynomial.delta(field, tuple(x * args.p for x in h), args.n, dim)
    identity_ok = lhs == Q * TranslationPolynomial.delta(field, h, args.n, dim)
    doc = jsonio.manifest(field, {"factor": jsonio.encode_op(Q)})
    doc["identity"] = "exact-pass" if identity_ok else "fail"
    return _emit(args, doc)


# -- subspace ----------------------------------------------------------------

def _decode_ops(field, ops_raw):
    def decode(entry):
        power = jsonio.parse_int(entry.get("power", 1), "power")
        if "delta" in entry:
            spec = entry["delta"]
            h = jsonio.decode_vector(field, spec["h"])
            m = jsonio.parse_int(spec.get("m", 1), "m")
            L = TranslationPolynomial.delta(field, h, m, dim=len(h))
        elif "op" in entry:
            L = jsonio.decode_op(field, entry["op"])
        else:
            raise MalformedInput("operator entry needs 'delta' or 'op'")
        return L, power

    return _decode_entries(ops_raw, "ops", decode)


def cmd_space_diamond(args) -> int:
    field = _field_from_args(args)
    V = jsonio.decode_space(field, _load_json(args.space))
    ops = _decode_ops(field, _load_json(args.ops))
    closed = invariant_closure(V, ops)
    perm = invariant_closure(V, list(reversed(ops)))
    sat = saturate(V, [L for L, _ in ops], cap=64)
    doc = jsonio.manifest(field, {"space": jsonio.encode_space(closed)}, {
        "contains_input": _status(closed.contains_all(V.basis_polynomials())),
        "invariant": _status(all(closed.is_invariant_under(L) for L, _ in ops)),
        "relabeling_independent": _status(closed.equals(perm)),
        "saturation_agrees": _status(not sat.capped and sat.space.equals(closed)),
    })
    doc["dimension"] = closed.dim
    return _emit(args, doc)


# -- solver -------------------------------------------------------------------

def _decode_system(obj) -> DifferenceSystem:
    try:
        field = jsonio.decode_field(obj["field"])
        dim = jsonio.parse_int(obj["dim"], "dim")
        steps = [(jsonio.decode_vector(field, e["h"]), jsonio.parse_int(e["m"], "steps m"))
                 for e in obj["steps"]]
        rhs = [jsonio.decode_exppoly(field, g) for g in obj["rhs"]]
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput(f"bad system document: {e}") from e
    return DifferenceSystem(field, dim, steps, rhs)


def cmd_solve(args) -> int:
    sys_doc = _load_json(args.system)
    system = _decode_system(sys_doc)
    sol = solve_difference_system(system)
    residual_ok = all(sol.particular.forward_difference(h, m) == g
                      for (h, m), g in zip(system.steps, system.rhs))
    kernel_ok = all(k.forward_difference(h, m).is_zero()
                    for k in sol.kernel_basis for h, m in system.steps)
    doc = jsonio.manifest(system.field, {
        "particular": jsonio.encode_exppoly(sol.particular),
        "kernel": [jsonio.encode_exppoly(k) for k in sol.kernel_basis],
        "ansatz": [{"lambda": [jsonio.encode_complex(z) for z in fr],
                    "degree_bound": b} for fr, b in sol.ansatz],
    }, {
        "residual_zero": _status(residual_ok),
        "kernel_annihilated": _status(kernel_ok),
    })
    return _emit(args, doc)


def cmd_kernel(args) -> int:
    field = _field_from_args(args)
    steps = _decode_entries(_load_json(args.steps), "steps",
                            lambda e: (jsonio.decode_vector(field, e["h"]),
                                       jsonio.parse_int(e["m"], "m")))
    if not steps:
        raise MalformedInput("steps must be a non-empty JSON list")
    dim = len(steps[0][0])
    if dim == 0:
        raise MalformedInput("steps entry 0 has an empty step h")
    kern = polynomial_kernel(field, dim, steps, args.cap)
    ok = all(k.forward_difference(h, m).is_zero() for k in kern for h, m in steps)
    doc = jsonio.manifest(field, {
        "kernel": [jsonio.encode_exppoly(k) for k in kern],
    }, {"kernel_annihilated": _status(ok)})
    doc["dimension"] = len(kern)
    return _emit(args, doc)


# -- constructions --------------------------------------------------------------

def cmd_construct_triangle(args) -> int:
    field = _field_from_args(args)
    period = field.rational(jsonio.parse_frac(args.period))
    wave = make_triangle_wave(period)
    half = float(period) / 2
    rng = np.random.default_rng(args.seed)
    xs = rng.uniform(-10 * float(period), 10 * float(period), 1000)
    per_resid = float(np.max(np.abs(
        wave.eval_array(xs[:, None]) - wave.eval_array((xs + float(period))[:, None]))))
    doc = jsonio.manifest(field, {"function": jsonio.encode_function(wave)}, {
        "vanishes_at_zero": _status(wave.eval_float((0.0,)) == 0),
        "peak_at_half_period": _status(abs(wave.eval_float((half,)) - half) < 1e-15),
        "periodicity_residual": per_resid,
    })
    return _emit(args, doc)


def cmd_construct_fm(args) -> int:
    field = _field_from_args(args)
    period = field.rational(jsonio.parse_frac(args.period))
    fm = make_fm(args.m, period)
    wave = make_triangle_wave(period)
    rng = np.random.default_rng(args.seed)
    xs = rng.uniform(-20 * float(period), 20 * float(period), 10000)[:, None]
    # the tower on xs + k P, k = 0 .. m, once: delta_P^m f_m and
    # delta_P^(m-1) f_m = the wave read the same rows
    shifted = shifted_values(fm, (float(period),), args.m, xs)
    top = float(np.max(np.abs(binomial_difference(shifted, args.m))))
    below = binomial_difference(shifted, args.m - 1) if args.m > 1 else shifted[0]
    wave_resid = float(np.max(np.abs(below - wave.eval_array(xs))))
    # the tower over period P is P·f_m(x/P), so steps scaled by P see the
    # slope gaps of the unit tower
    window = [(0.6 * float(period), (args.m + 2) * float(period))] if args.m > 1 \
        else [(-0.4 * float(period), 0.4 * float(period))]
    witness = corner_witness(fm, window, [s * float(period) for s in CORNER_STEPS])
    doc = jsonio.manifest(field, {"function": jsonio.encode_function(fm)}, {
        "top_difference_residual": top,
        "tower_step_residual": wave_resid,
        "corner": _status(witness is not None),
    })
    if witness:
        doc["corner_witness"] = {"point": list(witness.point), "gap": witness.gap,
                                 "direction": list(witness.direction)}
    return _emit(args, doc)


def cmd_construct_prop7(args) -> int:
    field = _field_from_args(args)
    gens = jsonio.decode_vectors(field, _load_json(args.generators), "generators")
    closure = group_closure(gens, field=field)
    if args.hyperplane:
        vt = jsonio.decode_vectors(field, _load_json(args.hyperplane), "hyperplane")
        frame = frame_on_hyperplane(closure, vt)
    else:
        frame = build_frame(closure)
    outer = jsonio.decode_exppoly(field, _load_json(args.outer))
    phi, H = make_counterexample(frame, outer, args.m)
    inv_ok, member_ok, witness = certify_counterexample(phi, H, args.m)
    doc = jsonio.manifest(field, {
        "phi": jsonio.encode_function(phi),
        "H": jsonio.encode_space(H),
        "frame": jsonio.encode_frame(frame),
    }, {
        "h_invariance": _status(inv_ok),
        "membership": _status(member_ok),
        "corner": _status(witness is not None),
    })
    if witness:
        doc["corner_witness"] = {"point": list(witness.point), "gap": witness.gap,
                                 "direction": list(witness.direction)}
    return _emit(args, doc)


# -- verification --------------------------------------------------------------

def _parse_grid(spec: str):
    axes = []
    for part in spec.split(";"):
        fields = part.split(",")
        if len(fields) != 3:
            raise MalformedInput(f"grid axis {part!r} is not 'lo,hi,count'")
        try:
            lo, hi, n = float(fields[0]), float(fields[1]), int(fields[2])
        except ValueError as e:
            raise MalformedInput(f"grid axis {part!r}: {e}") from e
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise MalformedInput(f"grid axis {part!r} has a non-finite bound")
        if n < 1:
            raise MalformedInput(f"grid axis {part!r} needs a count >= 1")
        axes.append((lo, hi, n))
    return axes


def _parse_op_spec(field, text: str, dim: int):
    toks = text.split()
    if not toks or toks[0] != "delta":
        raise MalformedInput("only 'delta h=<...> m=<k>' operators are supported")
    h = None
    m = 1
    for tok in toks[1:]:
        key, _, val = tok.partition("=")
        if key == "h":
            try:
                parsed = json.loads(val)
            except json.JSONDecodeError as e:
                raise MalformedInput(f"operator step {val!r} is not JSON: {e}") from e
            if not isinstance(parsed, list):
                parsed = [parsed]
            h = [jsonio.parse_frac(str(x)) for x in parsed]
        elif key == "m":
            try:
                m = int(val)
            except ValueError as e:
                raise MalformedInput(f"operator order {val!r} is not an integer") from e
            if m < 0:
                raise MalformedInput(f"operator order must be >= 0, got {m}")
        else:
            raise MalformedInput(f"unknown operator token {tok!r}")
    if h is None:
        raise MalformedInput("operator needs h=<step>")
    if len(h) != dim:
        raise MalformedInput("operator step length differs from function dimension")
    return [float(x) for x in h], m


def _load_function(args):
    """The field and function of ``--function``: a manifest whose objects
    hold a 'function' or 'phi' tree, or a bare tree over ``--field``."""
    tree = _load_json(args.function)
    if not (isinstance(tree, dict) and "objects" in tree):
        field = _field_from_args(args)
        return field, jsonio.decode_function(field, tree)
    field = jsonio.decode_field(tree.get("field"))
    objects = tree["objects"] if isinstance(tree["objects"], dict) else {}
    fn_doc = objects.get("function") or objects.get("phi")
    if fn_doc is None:
        raise MalformedInput("manifest has no 'function' or 'phi' object")
    return field, jsonio.decode_function(field, fn_doc)


def cmd_verify_grid(args) -> int:
    field, f = _load_function(args)
    axes = _parse_grid(args.grid)
    if len(axes) != f.dim:
        raise MalformedInput("grid dimension differs from function dimension")
    pts = mesh_points([np.linspace(lo, hi, n) for lo, hi, n in axes])
    h, m = _parse_op_spec(field, args.op, f.dim)
    shifted = shifted_values(f, h, m, pts)
    vals = binomial_difference(shifted, m)
    max_resid = float(np.max(np.abs(vals)))
    # the scale max |f| reads row k = 0, f on the grid itself
    tol = args.tolerance_atol + args.tolerance_rtol * max(
        1.0, float(np.max(np.abs(shifted[0]))))
    doc = {"version": jsonio.SCHEMA_VERSION,
           "max_residual": max_resid,
           "tolerance": tol,
           "certificates": {"residual_within_tolerance": _status(max_resid <= tol)}}
    if args.out:
        _write_grid_csv(args.out, axes, pts, vals)
        doc["csv"] = args.out
    print(jsonio.dumps(doc))
    return 0 if max_resid <= tol else 1


def _write_grid_csv(path: str, axes, pts: np.ndarray, vals: np.ndarray):
    with open(path, "w") as fh:
        cols = [f"x{i}" for i in range(pts.shape[1])]
        fh.write(",".join(cols + ["re", "im"]) + "\n")
        for p, v in zip(pts, vals):
            fh.write(",".join(repr(float(x)) for x in p) +
                     f",{v.real!r},{v.imag!r}\n")
    meta = {"axes": [{"min": lo, "max": hi, "count": n} for lo, hi, n in axes]}
    with open(path + ".meta.json", "w") as fh:
        fh.write(jsonio.dumps(meta) + "\n")


def cmd_fit_cosets(args) -> int:
    field, f = _load_function(args)
    # a coset build carries the closure of its frame's generators
    frame = getattr(f, "frame", None)
    closure = jsonio.decode_closure(field, _load_json(args.closure),
                                    frame.closure if frame is not None else None)
    H = jsonio.decode_space(field, _load_json(args.space))
    orders = _decode_entries(_load_json(args.orders), "orders", lambda e: (
        jsonio.decode_vector(field, e["h"]), jsonio.parse_int(e["n"], "n"),
        jsonio.parse_int(e.get("m", e["n"]), "m")))
    lambdas = jsonio.decode_vectors(field, _load_json(args.lambdas), "lambdas")
    report = fit_coset_slices(f, closure, orders, H, lambdas,
                              grid_count=args.grid_count,
                              grid_halfwidth=args.grid_halfwidth)
    tol = args.tolerance_atol
    worst = max((s.residual for s in report.slices), default=0.0)
    # the slices share their candidate leaves: each is encoded once
    shared: dict = {}
    doc = jsonio.manifest(field, {
        "slices": [{
            "lambda": jsonio.encode_vector(s.lattice_point),
            "residual": s.residual,
            "coefficients": [[c.real, c.imag] for c in s.coefficients],
            "function": jsonio.encode_function(s.function, shared=shared),
        } for s in report.slices],
        "completion_steps": [jsonio.encode_vector(v)
                             for v in report.completion_steps],
    }, {
        "held_out_residual": worst,
        "within_tolerance": _status(worst <= tol),
    })
    doc["condition"] = report.condition
    doc["candidate_dimension"] = report.candidate_dim
    return _emit(args, doc)


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand takes only the shared options its handler
    reads: ``--out`` always, ``--field`` unless the input carries its own
    field, ``--seed`` and the tolerances where given."""
    ap = argparse.ArgumentParser(
        prog="deltaclose",
        description="Exact forward-difference operator algebra, subgroup "
                    "closures, and exponential-polynomial reconstruction.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(group, name, handler, *required, field=True, seed=False, atol=None, rtol=None):
        """The subparser ``name``: its shared options, then the JSON or text
        options in ``required``."""
        p = group.add_parser(name)
        p.set_defaults(handler=handler)
        if field:
            p.add_argument("--field", help="field JSON {'minpoly': [...], 'interval': [...]}")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        for flag, default in (("--tolerance-atol", atol), ("--tolerance-rtol", rtol)):
            if default is not None:
                p.add_argument(flag, type=float, default=default)
        p.add_argument("--out", help="also write the JSON document to this path")
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    group = sub.add_parser("group").add_subparsers(dest="sub", required=True)
    command(group, "closure", cmd_group_closure, "--generators")

    op = sub.add_parser("op").add_subparsers(dest="sub", required=True)
    p = command(op, "expand", cmd_op_expand, "--steps", "--powers")
    p.add_argument("-N", type=int, required=True)
    p = command(op, "divide", cmd_op_divide, "--step")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-n", type=int, required=True)

    space = sub.add_parser("space").add_subparsers(dest="sub", required=True)
    command(space, "diamond", cmd_space_diamond, "--space", "--ops")

    # the system document carries its own field
    command(sub, "solve", cmd_solve, "--system", field=False)
    p = command(sub, "kernel", cmd_kernel, "--steps")
    p.add_argument("--cap", type=int, required=True)

    cons = sub.add_parser("construct").add_subparsers(dest="sub", required=True)
    p = command(cons, "triangle", cmd_construct_triangle, seed=True)
    p.add_argument("--period", default="1")
    p = command(cons, "fm", cmd_construct_fm, seed=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--period", default="1")
    p = command(cons, "prop7", cmd_construct_prop7, "--generators", "--outer")
    p.add_argument("-m", type=int, default=1)
    p.add_argument("--hyperplane", help="optional hyperplane basis override")

    ver = sub.add_parser("verify").add_subparsers(dest="sub", required=True)
    command(ver, "grid", cmd_verify_grid, "--function", "--op", "--grid", atol=1e-8, rtol=1e-9)

    fit = sub.add_parser("fit").add_subparsers(dest="sub", required=True)
    p = command(fit, "cosets", cmd_fit_cosets, "--function", "--closure", "--space",
                "--orders", "--lambdas", atol=1e-8)
    p.add_argument("--grid-count", type=int, default=16)
    p.add_argument("--grid-halfwidth", type=float, default=2.0)
    return ap


_PARSER = None  # built by the first main() call, not at import


def _check_tolerances(args):
    """Refuse a shared tolerance option that is not finite and >= 0: a NaN
    bound passes no residual, an infinite one every residual."""
    for flag in ("--tolerance-atol", "--tolerance-rtol"):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise MalformedInput(f"{flag} must be finite and >= 0, got {value}")

# the exit code of each typed error; any other error exits 1
_EXIT_CODES = ((MalformedInput, 2), (Inconsistent, 3), (NotDense, 4), (DenseGroup, 4),
               (PreconditionNotInvariant, 5), (IllConditionedFit, 1))


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        _check_tolerances(args)
        return args.handler(args)
    except DeltaCloseError as e:
        for kind, code in _EXIT_CODES:
            if isinstance(e, kind):
                print(f"error: {e}", file=sys.stderr)
                return code
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
