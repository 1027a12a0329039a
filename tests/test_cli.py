import argparse
import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaclose import calg, make_field
from deltaclose import cli, construct, jsonio, solver
from deltaclose.cli import main
from deltaclose.construct import make_fm
from deltaclose.exppoly import ExpPolynomial
from deltaclose.expcoef import ExpCoefficient
from deltaclose.opalg import TranslationPolynomial

from conftest import random_expcoef, random_exppoly, rng_for

SQRT2 = '{"minpoly":["-2/1","0/1","1/1"],"interval":["1/1","2/1"]}'


def run_cli(args):
    r = subprocess.run([sys.executable, "-m", "deltaclose.cli", *args],
                       capture_output=True, text=True)
    return r


def test_group_closure_dyadic_display():
    r = run_cli(["group", "closure", "--generators", '[["1/1"],["1/2"],["1/4"]]'])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["Lambda"] == ["1/4"]
    assert doc["dense"] is False
    assert all(v == "exact-pass" for v in doc["certificates"].values())


def test_group_closure_dense_flag():
    r = run_cli(["group", "closure", "--field", SQRT2,
                 "--generators", '[["1/1"],[{"coords":["0/1","1/1"]}]]'])
    doc = json.loads(r.stdout)
    assert doc["dense"] is True


def test_op_expand_base_case():
    r = run_cli(["op", "expand", "--steps", '[["1/1"],["1/2"]]',
                 "--powers", "[1,1]", "-N", "1"])
    doc = json.loads(r.stdout)
    assert doc["identity"] == "exact-pass"
    assert doc["certificates"]["pigeonhole"] == "exact-pass"
    assert len(doc["objects"]["summands"]) == 2


def test_determinism_byte_identical():
    args = ["op", "expand", "--field", SQRT2,
            "--steps", '[["1/1"],[{"coords":["0/1","1/1"]}]]',
            "--powers", "[2,-1]", "-N", "3"]
    a, b = run_cli(args), run_cli(args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    # also for a command whose report carries floats and random sweeps
    for m in ("2", "6"):
        args2 = ["construct", "fm", "-m", m, "--period", "1"]
        c, d = run_cli(args2), run_cli(args2)
        assert c.returncode == d.returncode == 0
        assert c.stdout == d.stdout


def test_exit_code_malformed(capsys, tmp_path):
    r = run_cli(["group", "closure", "--generators", "not json"])
    assert r.returncode == 2
    # non-finite bounds, empty or short axes and bad orders are refused
    # before any evaluation
    wave = '{"kind":"triangle_wave","period":"1/1"}'
    for grid, op in [("nan,1,5", "delta h=1 m=1"), ("0,inf,5", "delta h=1 m=1"),
                     ("0,1,0", "delta h=1 m=1"), ("0,1", "delta h=1 m=1"),
                     ("0,1,5", "delta h=1 m=-1"), ("0,1,5", "delta h=1 m=x")]:
        rc = main(["verify", "grid", "--function", wave, "--op", op, f"--grid={grid}"])
        assert rc == 2, (grid, op)
    # a tower order below 1, and a point too far out to walk its lattice orbit
    assert main(["construct", "fm", "-m", "0"]) == 2
    F = make_field([-2, 0, 1], (1, 2))
    f3 = jsonio.dumps(jsonio.manifest(F, {"function": jsonio.encode_function(make_fm(3, F.one()))}))
    rc = main(["verify", "grid", "--function", f3, "--op", "delta h=1 m=3", "--grid=0,1e12,5"])
    assert rc == 2
    # steps that are not JSON or not rationals
    for op in ("delta h=[1 m=1", "delta h=abc", 'delta h="1/0"', "delta h=[null]"):
        assert main(["verify", "grid", "--function", wave, "--op", op, "--grid=0,1,5"]) == 2, op
    # malformed list entries, operator shifts, powers, periods and
    # hyperplanes are named in the message
    capsys.readouterr()
    space = json.dumps({"dim": 1, "basis": []})
    x1 = {"dim": 1, "terms": [{"lambda": [[{"coords": ["0/1", "0/1"]},
                                           {"coords": ["0/1", "0/1"]}]],
                               "poly": [{"alpha": [1], "coeff": "1"}]}]}
    long_op = {"dim": 1, "terms": [{"shift": ["1/1", "1/1"], "coeff": "1"}]}
    const = {"dim": 1, "terms": [{"lambda": [["0/1", "0/1"]],
                                  "poly": [{"alpha": [0], "coeff": "1"}]}]}
    x1_2d = {"dim": 2, "terms": [{"lambda": [["0/1", "0/1"], ["0/1", "0/1"]],
                                  "poly": [{"alpha": [1, 0], "coeff": "1"}]}]}
    outer = {"dim": 2, "terms": [{
        "lambda": [[{"coords": ["1/1", "0/1"]}, {"coords": ["0/1", "0/1"]}],
                   [{"coords": ["0/1", "0/1"]}, {"coords": ["0/1", "0/1"]}]],
        "poly": [{"alpha": [0, 0], "coeff": "1"}]}]}
    mixed = '[["1/1","0/1"],[{"coords":["0/1","1/1"]},"0/1"],["0/1","1/1"]]'
    prop7 = ["construct", "prop7", "--field", SQRT2, "--outer", json.dumps(outer)]
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"kind":"triangle_wa')
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b'{"kind":"\xff"}')

    def grid_of(function):
        return ["verify", "grid", "--function", function, "--op", "delta h=1 m=1", "--grid=0,1,5"]

    def scaled(factor):
        return grid_of(f'{{"kind":"scale","factor":{{"complex":{factor}}},"child":{wave}}}')

    dense = json.dumps([{"h": ["1/1"], "m": 2}, {"h": [{"coords": ["0/1", "1/1"]}], "m": 2}])
    # a slice fit of e^(x_1) over the non-dense group Z x sqrt2 Z x Z in R^2
    e1 = jsonio.encode_exppoly(ExpPolynomial.exponential(F, 2, (calg(F, 1), calg(F, 0))))
    fit = ["fit", "cosets", "--field", SQRT2,
           "--function", json.dumps({"kind": "exppoly", "poly": e1}),
           "--closure", json.dumps({"generators": json.loads(mixed)}),
           "--space", json.dumps({"dim": 2, "basis": [e1]}),
           "--orders", json.dumps([{"h": g, "n": 1} for g in json.loads(mixed)]),
           "--lambdas", '[["0/1","0/1"]]']
    # a counterexample whose frame w, r or p disagree with its closure and
    # hyperplane, in the function verify grid reads (r = 0 and w = 0 gave a
    # NaN residual and exit 1)
    grid_2d = ["--op", 'delta h=["0/1","1/1"] m=1', "--grid=-1,1,5;-1,1,5"]
    assert main(prop7 + ["--generators", mixed]) == 0
    built = capsys.readouterr().out
    assert main(["verify", "grid", "--function", built] + grid_2d) == 0
    capsys.readouterr()

    def tampered(key, change):
        doc = json.loads(built)
        frame = doc["objects"]["phi"]["frame"]
        frame[key] = change(frame[key])
        return ["verify", "grid", "--function", json.dumps(doc)] + grid_2d

    frame_rows = [
        (tampered("r", lambda r: "0/1"), "frame w, r or p differ"),
        (tampered("w", lambda w: ["0/1"] * len(w)), "frame w, r or p differ"),
        (tampered("r", lambda r: {"coords": [jsonio.frac_str(2 * Fraction(c))
                                             for c in r["coords"]]}), "frame w, r or p differ"),
        (tampered("p", lambda p: [p[0] + 1] + p[1:]), "frame w, r or p differ"),
    ]
    for argv, named in frame_rows + [
        (["kernel", "--steps", '[{"m":1}]', "--cap", "2"], "steps entry 0"),
        (["kernel", "--steps", "[]", "--cap", "2"], "non-empty"),
        (["kernel", "--cap", "2", "--steps", '[{"h":[],"m":1}]'], "steps entry 0"),
        (["construct", "fm", "-m", "401"], "must be <= 400, got 401"),
        (["kernel", "--field", SQRT2, "--steps", dense, "--cap", "-1"], "cap must be >= 0, got -1"),
        (fit + ["--grid-count", "0"], "grid count must be >= 1, got 0"),
        (fit + ["--grid-count", "-3"], "grid count must be >= 1, got -3"),
        # one fitting point for the four candidates, and a space with no basis
        # over a trivial V, which leaves no candidate at all
        (fit + ["--grid-count", "1"], "1 fitting points for 4 candidates"),
        # a half-width or tolerance that is not finite and >= 0 (> 0 for
        # the half-width): nan and inf reached the fit (exit 1), and a
        # tolerance of nan failed, one of inf passed, every residual
        (fit + ["--grid-halfwidth", "nan"], "grid half-width must be finite and > 0, got nan"),
        (fit + ["--grid-halfwidth", "inf"], "grid half-width must be finite and > 0, got inf"),
        (fit + ["--grid-halfwidth", "0"], "grid half-width must be finite and > 0, got 0.0"),
        (fit + ["--tolerance-atol", "inf"], "--tolerance-atol must be finite and >= 0, got inf"),
        (grid_of(wave) + ["--tolerance-atol", "nan"],
         "--tolerance-atol must be finite and >= 0, got nan"),
        (grid_of(wave) + ["--tolerance-atol", "inf"],
         "--tolerance-atol must be finite and >= 0, got inf"),
        (grid_of(wave) + ["--tolerance-rtol=-1e-9"],
         "--tolerance-rtol must be finite and >= 0, got -1e-09"),
        # points outside the lattice Z e2 of the closure: (0, 1/2) lies in
        # its span, (1, 0) in V
        (fit[:-1] + ['[["0/1","1/2"]]'],
         "lattice point (0, 1/2) is not in the lattice Lambda of the closure"),
        (fit[:-1] + ['[["0/1","0/1"],["1/1","0/1"]]'],
         "lattice point (1, 0) is not in the lattice Lambda of the closure"),
        (["fit", "cosets", "--function", f3, "--closure", '{"generators":[["1/1"]]}',
          "--space", space, "--orders", "[]", "--lambdas", '[["0/1"]]'],
         "candidate space is empty"),
        (["space", "diamond", "--space", space, "--ops", "[1]"], "ops entry 0"),
        (["space", "diamond", "--space", space,
          "--ops", '[{"delta":{"h":["1/1"]},"power":"x"}]'], "ops entry 0"),
        (["space", "diamond", "--field", SQRT2, "--space", json.dumps({"dim": 1, "basis": [x1]}),
          "--ops", json.dumps([{"op": long_op}])], "operator shift"),
        # an operator of another dimension than the space, also when its
        # basis is empty
        (["space", "diamond", "--space", space,
          "--ops", '[{"delta":{"h":["1/1","1/1"],"m":1},"power":2}]'],
         "operator 0 acts in dimension 2, the space in dimension 1"),
        (["op", "expand", "--steps", '[["1/1"]]', "--powers", '["x"]', "-N", "1"], "powers"),
        (["construct", "fm", "-m", "2", "--period", "x"], "'x'"),
        (["construct", "triangle", "--period", "x"], "'x'"),
        # a hyperplane row of the wrong length, and levels 1 : sqrt2
        (prop7 + ["--generators", mixed, "--hyperplane", '[["1/1","0/1","0/1"]]'],
         "hyperplane row"),
        (prop7 + ["--generators", '[["1/1","0/1"],["0/1","1/1"]]',
                  "--hyperplane", '[["1/1",{"coords":["0/1","1/1"]}]]'], "commensurable"),
        # vector-list arguments that are not JSON lists
        (prop7 + ["--generators", "5"], "generators must be a JSON list"),
        (prop7 + ["--generators", mixed, "--hyperplane", "5"], "hyperplane must be a JSON list"),
        (["op", "expand", "--steps", "5", "--powers", "[1]", "-N", "1"],
         "steps must be a JSON list"),
        (["fit", "cosets", "--function", f3, "--closure", '{"generators":[["1/1"]]}',
          "--space", space, "--orders", "[]", "--lambdas", "5"], "lambdas must be a JSON list"),
        # field documents whose minpoly or interval is a string or of the wrong
        # length (a string was read character by character)
        (["construct", "triangle", "--field", '{"minpoly":["-2","0","1"],"interval":"12"}'],
         "'interval' list of two"),
        (["construct", "triangle", "--field",
          '{"minpoly":["-2","0","1"],"interval":["1","2","3"]}'], "'interval' list of two"),
        (["construct", "triangle", "--field", '{"minpoly":"01","interval":["-1","1"]}'],
         "'minpoly' list"),
        (["construct", "triangle", "--field",
          '{"minpoly":[Infinity,"0","1"],"interval":["1","2"]}'], "bad rational inf"),
        # a JSON number with a fraction part was rounded to binary by the
        # reader, so it is refused in every scalar position: generators,
        # coordinates, field documents and coefficients; a non-finite number
        # is not a rational
        (["group", "closure", "--generators", "[[0.5],[1,2.5]]"], "float scalar 0.5"),
        (["group", "closure", "--generators", '[[0.5,"x"]]'], "float scalar 0.5"),
        (["group", "closure", "--generators", "[[0.5,null]]"], "float scalar 0.5"),
        (["group", "closure", "--generators", "[[1e400]]"], "bad rational inf"),
        (["group", "closure", "--generators", "[[NaN]]"], "bad rational nan"),
        (["group", "closure", "--generators", '[[{"coords":[0.1]}]]'], "float scalar 0.1"),
        (["construct", "triangle", "--field",
          '{"minpoly":["-2","0","1"],"interval":[1.4,1.5]}'], "float scalar 1.4"),
        # JSON booleans are not numbers, exact or float
        (["group", "closure", "--generators", "[[true],[false]]"], "bad scalar true"),
        (["group", "closure", "--generators", '[[{"coords":[true,"0/1"]}]]'],
         "bad rational true"),
        (["group", "closure", "--generators", "[[0.5,true]]"], "float scalar 0.5"),
        (["space", "diamond", "--field", SQRT2, "--ops", '[{"delta":{"h":["1/1"]}}]',
          "--space", json.dumps({"dim": 1, "basis": [x1]}).replace('"1"', "true")],
         "bad rational true"),
        # files that cannot be read or hold no JSON, whether named by @path or
        # by a bare .json path
        (grid_of(f"@{truncated}"), f"file '{truncated}' is not JSON"),
        (grid_of(str(truncated)), f"file '{truncated}' is not JSON"),
        (grid_of(f"@{tmp_path / 'missing.json'}"), "cannot read"),
        (grid_of(f"@{tmp_path}"), f"cannot read '{tmp_path}'"),
        (grid_of(f"@{undecodable}"), f"file '{undecodable}' is not JSON"),
        # an integer too long for int() to read from text
        (["kernel", "--cap", "2", "--steps", f'[{{"h":["1/1"],"m":{"9" * 5000}}}]'],
         "argument is neither a file nor JSON"),
        # an order, power or exponent that is not an integer: a fraction was
        # truncated, a non-finite number overflowed int()
        (["kernel", "--field", SQRT2, "--steps", dense.replace('"m": 2', '"m": 2.7', 1),
          "--cap", "3"], "m must be an integer, got 2.7"),
        (["op", "expand", "--steps", '[["1/1"]]', "--powers", "[Infinity]", "-N", "1"],
         "powers entry 0 must be an integer, got Infinity"),
        (["space", "diamond", "--field", SQRT2, "--ops", '[{"delta":{"h":["1/1"]}}]',
          "--space", json.dumps({"dim": 1, "basis": [x1]}).replace("[1]", "[1e400]")],
         "alpha entry must be an integer, got Infinity"),
        (["space", "diamond", "--field", SQRT2, "--ops", '[{"delta":{"h":["1/1"]}}]',
          "--space", json.dumps({"dim": 1, "basis": [x1]}).replace("[1]", "[-2]")],
         "multi-index [-2] has a negative exponent"),
        # a decoded antidifference whose child does not vanish on its step
        # lattice, and a projection matrix that is not square over its child
        (["verify", "grid", "--function", json.dumps(
            {"kind": "antidifference", "step": {"coords": ["1/1"]},
             "child": {"kind": "exppoly", "poly": const}}),
          "--op", "delta h=1 m=1", "--grid=-3,3,7"], "|g(-50 h)| > 1e-10"),
        (["verify", "grid", "--function", json.dumps(
            {"kind": "project", "matrix": [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"]],
             "child": {"kind": "exppoly", "poly": x1_2d}}),
          "--op", 'delta h=["1/1","0/1"] m=1', "--grid=0,1,3;0,1,3"],
         "projection matrix must be square of side 2"),
        # a float Scale factor that is not two finite numbers (a bool was
        # read as 1, NaN printed a NaN residual and exited 1)
        (scaled("[true,0]"), "scale factor [true, 0] is not two finite numbers"),
        (scaled("[NaN,0]"), "scale factor [NaN, 0] is not two finite numbers"),
        (scaled("[Infinity,0]"), "scale factor [Infinity, 0] is not two finite numbers"),
    ]:
        assert main(argv) == 2, argv
        assert named in capsys.readouterr().err, argv
    # function trees nested deeper than the decoder reads, or than the JSON
    # reader's recursion allows; the deepest trees the library writes (f_m of
    # the largest order) still verify
    def chain(depth):
        node = '{"kind":"antidifference","step":"1/1","child":'
        return node * (depth - 1) + wave + "}" * (depth - 1)

    limit = jsonio.MAX_FUNCTION_DEPTH
    for depth in (limit + 1, 1000, 5000):
        assert main(["verify", "grid", "--function", chain(depth), "--op", "delta h=1 m=1",
                     "--grid=0,1,5"]) == 2, depth
        err = capsys.readouterr().err
        assert f"deeper than {limit} levels" in err or "nests too deeply" in err, depth
    assert main(["verify", "grid", "--function", chain(limit), "--op", "delta h=1 m=1",
                 "--grid=0,1,5"]) == 0
    f400 = jsonio.dumps(jsonio.manifest(F, {"function": jsonio.encode_function(make_fm(400, F.one()))}))
    assert main(["verify", "grid", "--function", f400, "--op", "delta h=1 m=400",
                 "--grid=0,3,7"]) == 0
    capsys.readouterr()
    # a manifest without a function tree is refused by both of its readers
    bare = jsonio.dumps(jsonio.manifest(F, {}))
    for argv in (["verify", "grid", "--function", bare, "--op", "delta h=1", "--grid=0,1,5"],
                 ["fit", "cosets", "--function", bare, "--closure", "{}", "--space", "{}",
                  "--orders", "[]", "--lambdas", "[]"]):
        assert main(argv) == 2, argv
        assert "no 'function' or 'phi'" in capsys.readouterr().err, argv


def test_exit_code_not_dense():
    sys_doc = {
        "field": json.loads(SQRT2),
        "dim": 1,
        "steps": [{"h": ["1/1"], "m": 1}],
        "rhs": [{"dim": 1, "terms": []}],
    }
    r = run_cli(["solve", "--system", json.dumps(sys_doc)])
    assert r.returncode == 4


def test_exit_code_inconsistent():
    one = {"dim": 1, "terms": [{"lambda": [[{"coords": ["0/1", "0/1"]},
                                            {"coords": ["0/1", "0/1"]}]],
                                "poly": [{"alpha": [0], "coeff": "1"}]}]}
    sys_doc = {
        "field": json.loads(SQRT2),
        "dim": 1,
        "steps": [{"h": ["1/1"], "m": 1}, {"h": [{"coords": ["0/1", "1/1"]}], "m": 1}],
        "rhs": [one, {"dim": 1, "terms": []}],
    }
    r = run_cli(["solve", "--system", json.dumps(sys_doc)])
    assert r.returncode == 3


def test_exit_code_precondition():
    x2 = {"dim": 1, "terms": [{"lambda": [[{"coords": ["0/1", "0/1"]},
                                           {"coords": ["0/1", "0/1"]}]],
                               "poly": [{"alpha": [2], "coeff": "1"}]}]}
    space = {"dim": 1, "basis": [x2]}
    ops = [{"delta": {"h": ["1/1"], "m": 1}, "power": 1}]
    r = run_cli(["space", "diamond", "--field", SQRT2,
                 "--space", json.dumps(space), "--ops", json.dumps(ops)])
    assert r.returncode == 5


def test_solve_roundtrip_via_cli():
    F = make_field([-2, 0, 1], (1, 2))
    th = F.gen()
    f = ExpPolynomial.monomial(F, 1, (2,)) + \
        ExpPolynomial.exponential(F, 1, (calg(F, th),))
    steps = [((F.one(),), 2), ((th,), 2)]
    sys_doc = {
        "field": json.loads(SQRT2),
        "dim": 1,
        "steps": [{"h": jsonio.encode_vector(h), "m": m} for h, m in steps],
        "rhs": [jsonio.encode_exppoly(f.forward_difference(h, m)) for h, m in steps],
    }
    r = run_cli(["solve", "--system", json.dumps(sys_doc)])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["certificates"]["residual_zero"] == "exact-pass"
    assert doc["certificates"]["kernel_annihilated"] == "exact-pass"
    assert len(doc["objects"]["kernel"]) == 2


def test_kernel_cli():
    steps = json.dumps([{"h": ["1/1"], "m": 2},
                        {"h": [{"coords": ["0/1", "1/1"]}], "m": 2}])
    r = run_cli(["kernel", "--field", SQRT2, "--steps", steps, "--cap", "3"])
    doc = json.loads(r.stdout)
    assert r.returncode == 0
    assert doc["dimension"] == 2


def test_construct_and_verify_grid(tmp_path):
    out = tmp_path / "fm2.json"
    r = run_cli(["construct", "fm", "-m", "2", "--period", "1",
                 "--out", str(out)])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["certificates"]["top_difference_residual"] <= 1e-9
    assert doc["certificates"]["corner"] == "exact-pass"
    csv = tmp_path / "resid.csv"
    r2 = run_cli(["verify", "grid", "--function", str(out),
                  "--op", "delta h=1 m=2", "--grid=-20,20,10001",
                  "--out", str(csv)])
    assert r2.returncode == 0
    doc2 = json.loads(r2.stdout)
    assert doc2["max_residual"] <= 1e-9
    assert csv.exists() and (tmp_path / "resid.csv.meta.json").exists()


def test_verify_grid_far_shift_has_no_nan(capsys):
    # e^(x + 800) - e^x at x = -800 is 1 - e^-800: the shift taken as the
    # product e^x e^800 overflowed to 0 * inf and printed a NaN residual
    ex = {"kind": "exppoly", "poly": {"dim": 1, "terms": [
        {"lambda": [["1/1", "0/1"]], "poly": [{"alpha": [0], "coeff": "1"}]}]}}
    rc = main(["verify", "grid", "--function", json.dumps(ex), "--op", "delta h=800 m=1",
               "--grid=-800,-800,1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "NaN" not in out
    doc = json.loads(out)
    assert doc["max_residual"] == 1.0
    assert doc["certificates"]["residual_within_tolerance"] == "fail"


def test_ill_conditioned_fit_is_a_typed_error(tmp_path, monkeypatch, capsys):
    # a design condition above the cap is reported as an error, not as an
    # internal failure; the exit code stays 1
    F = make_field([-2, 0, 1], (1, 2))
    bundle = tmp_path / "phi.json"
    assert main(_prop7_variant(F, "base", 2, 1) + ["--out", str(bundle)]) == 0
    doc = json.loads(capsys.readouterr().out)
    gens = doc["objects"]["frame"]["closure"]["generators"]
    fit = ["fit", "cosets", "--function", str(bundle),
           "--closure", json.dumps(doc["objects"]["frame"]["closure"]),
           "--space", json.dumps(doc["objects"]["H"]),
           "--orders", json.dumps([{"h": g, "n": 1} for g in gens]),
           "--lambdas", json.dumps([["0/1", "0/1"]])]
    monkeypatch.setattr(solver, "COND_CAP", 1.0)
    assert main(fit) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: design condition ")
    assert captured.err.rstrip().endswith("exceeds 1.0e+00")


def test_full_counterexample_pipeline(tmp_path, capsys):
    outer = {"dim": 2, "terms": [{
        "lambda": [[{"coords": ["1/1", "0/1"]}, {"coords": ["0/1", "0/1"]}],
                   [{"coords": ["0/1", "0/1"]}, {"coords": ["0/1", "0/1"]}]],
        "poly": [{"alpha": [0, 0], "coeff": "1"}]}]}
    gens = '[["1/1","0/1"],[{"coords":["0/1","1/1"]},"0/1"],["0/1","1/1"]]'
    bundle = tmp_path / "phf.json"
    r = run_cli(["construct", "prop7", "--field", SQRT2, "--generators", gens,
                 "--outer", json.dumps(outer), "-m", "1", "--out", str(bundle)])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["certificates"]["h_invariance"] == "exact-pass"
    assert doc["certificates"]["membership"] == "exact-pass"
    assert "membership_residual" not in doc["certificates"]
    assert doc["certificates"]["corner"] == "exact-pass"
    closure = json.dumps(doc["objects"]["frame"]["closure"])
    space = json.dumps(doc["objects"]["H"])
    orders = json.dumps([
        {"h": ["1/1", "0/1"], "n": 1},
        {"h": [{"coords": ["0/1", "1/1"]}, "0/1"], "n": 1},
        {"h": ["0/1", "1/1"], "n": 1}])
    lambdas = json.dumps([["0/1", "0/1"], ["0/1", "1/1"]])
    r2 = run_cli(["fit", "cosets", "--function", str(bundle),
                  "--closure", closure, "--space", space,
                  "--orders", orders, "--lambdas", lambdas])
    assert r2.returncode == 0
    doc2 = json.loads(r2.stdout)
    assert doc2["certificates"]["within_tolerance"] == "exact-pass"
    assert all(s["residual"] <= 1e-8 for s in doc2["objects"]["slices"])
    # each slice function, a sum of float-scaled candidates, decodes again
    F = make_field([-2, 0, 1], (1, 2))
    for s in doc2["objects"]["slices"]:
        assert '"complex"' in json.dumps(s["function"])
        assert jsonio.encode_function(jsonio.decode_function(F, s["function"])) == s["function"]
    # lattice points of the wrong length are malformed input
    for bad in ('[["0/1"]]', '[["0/1","0/1","0/1"]]'):
        assert main(["fit", "cosets", "--function", str(bundle), "--closure", closure,
                     "--space", space, "--orders", orders, "--lambdas", bad]) == 2, bad
        assert "lattice point of length" in capsys.readouterr().err, bad


def test_fit_cosets_encodes_each_candidate_once(tmp_path, monkeypatch, capsys):
    # every slice sums the same candidates: each is encoded once, and the
    # printed text is json's, each candidate written out in both slices
    F = make_field([-2, 0, 1], (1, 2))
    bundle = tmp_path / "phi.json"
    assert main(_prop7_variant(F, "base", 2, 1) + ["--out", str(bundle)]) == 0
    doc = json.loads(capsys.readouterr().out)
    gens = doc["objects"]["frame"]["closure"]["generators"]
    encoded = []
    real = jsonio.encode_exppoly
    monkeypatch.setattr(jsonio, "encode_exppoly", lambda f: encoded.append(f) or real(f))
    assert main(["fit", "cosets", "--function", str(bundle),
                 "--closure", json.dumps({"generators": gens}),
                 "--space", json.dumps(doc["objects"]["H"]),
                 "--orders", json.dumps([{"h": g, "n": 1} for g in gens]),
                 "--lambdas", json.dumps([["0/1", "0/1"], ["0/1", "1/1"]])]) == 0
    text = capsys.readouterr().out
    fit = json.loads(text)
    assert len(encoded) == fit["candidate_dimension"] > 1
    assert text == json.dumps(fit, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"
    a, b = ([term["child"] for term in s["function"]["children"]]
            for s in fit["objects"]["slices"])
    assert a == b and len(a) == len(encoded)


def test_fit_cosets_reuses_the_frame_closure(tmp_path, monkeypatch, capsys):
    # a --closure document listing exactly the generators of the function's
    # frame reuses the frame's closure: one group closure per call instead
    # of two, and the same document as closing it again
    F = make_field([-2, 0, 1], (1, 2))
    bundle = tmp_path / "phi.json"
    assert main(_prop7_variant(F, "base", 2, 1) + ["--out", str(bundle)]) == 0
    doc = json.loads(capsys.readouterr().out)
    gens = doc["objects"]["frame"]["closure"]["generators"]
    fit = ["fit", "cosets", "--function", str(bundle),
           "--space", json.dumps(doc["objects"]["H"]),
           "--orders", json.dumps([{"h": g, "n": 1} for g in gens]),
           "--lambdas", json.dumps([["0/1", "0/1"], ["0/1", "1/1"]])]
    closures = []
    real_closure, real_decode = jsonio.group_closure, jsonio.decode_closure
    monkeypatch.setattr(jsonio, "group_closure",
                        lambda *a, **k: closures.append(1) or real_closure(*a, **k))

    def fit_cosets(closure_doc):
        closures.clear()
        rc = main(fit + ["--closure", json.dumps(closure_doc)])
        return rc, len(closures), capsys.readouterr().out

    reused = fit_cosets({"generators": gens})
    assert reused[:2] == (0, 1)
    # the same generators in another order are closed again
    assert fit_cosets({"generators": gens[::-1]})[:2] == (0, 2)
    monkeypatch.setattr(jsonio, "decode_closure",
                        lambda field, obj, known=None: real_decode(field, obj))
    assert fit_cosets({"generators": gens}) == (0, 2, reused[2])
    monkeypatch.setattr(jsonio, "decode_closure", real_decode)
    # the document is still decoded and checked
    for bad in ({}, {"generators": 5}, {"generators": [["1/1"]]}):
        assert fit_cosets(bad)[0] == 2, bad


def test_prop7_failed_certificate_exits_1(monkeypatch, capsys):
    # an exact membership verdict of False fails that certificate: the
    # document is still printed, and the exit code is 1
    outer = {"dim": 2, "terms": [{
        "lambda": [[{"coords": ["1/1", "0/1"]}, {"coords": ["0/1", "0/1"]}],
                   [{"coords": ["0/1", "0/1"]}, {"coords": ["0/1", "0/1"]}]],
        "poly": [{"alpha": [0, 0], "coeff": "1"}]}]}
    gens = '[["1/1","0/1"],[{"coords":["0/1","1/1"]},"0/1"],["0/1","1/1"]]'
    argv = ["construct", "prop7", "--field", SQRT2, "--generators", gens,
            "--outer", json.dumps(outer), "-m", "1"]
    assert main(argv) == 0
    passing = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(construct, "difference_membership", lambda *a: False)
    assert main(argv) == 1
    failing = json.loads(capsys.readouterr().out)
    assert failing["certificates"]["membership"] == "fail"
    assert failing["certificates"]["h_invariance"] == "exact-pass"
    assert failing["objects"] == passing["objects"]


def _step_4theta_prop7():
    # d = 3, m = 2, steps 1/2, 4 theta, 3 and outer e^(theta x_1): correct
    # input whose float residual on the 41^3 grid, 3.9e-7, failed the old
    # absolute bound of 2e-8
    F = make_field([-2, 0, 1], (1, 2))
    zero, th = F.zero(), F.gen()
    gens = [(F.rational(Fraction(1, 2)), zero, zero), (th * 4, zero, zero),
            (zero, F.rational(3), zero)]
    outer = ExpPolynomial.exponential(F, 3, (calg(F, th), calg(F, 0), calg(F, 0)))
    return ["construct", "prop7", "--field", jsonio.dumps(jsonio.encode_field(F)),
            "--generators", jsonio.dumps([jsonio.encode_vector(g) for g in gens]),
            "--outer", jsonio.dumps(jsonio.encode_exppoly(outer)), "-m", "2"]


@pytest.mark.parametrize("argv", [
    _step_4theta_prop7(),
    # the largest tower order, whose sampled differences carry the weights
    # C(k, 400): the old residual read 1.6e+256
    ["construct", "prop7", "--generators", '[["1/1"],["1/2"]]',
     "--outer", '{"dim":1,"terms":[]}', "-m", "400"],
], ids=["step-4theta", "order-400"])
def test_prop7_membership_is_exact_where_the_grid_bound_failed(argv, capsys):
    assert main(argv) == 0
    certs = json.loads(capsys.readouterr().out)["certificates"]
    assert certs == {"corner": "exact-pass", "h_invariance": "exact-pass",
                     "membership": "exact-pass"}


def test_failed_certificates_exit_1(monkeypatch, capsys):
    # any certificate, or the identity of op expand and op divide, reading
    # "fail" makes the exit code 1; the document is still printed
    fm = ["construct", "fm", "-m", "2", "--period", "1/1000000"]
    assert main(fm) == 0
    assert json.loads(capsys.readouterr().out)["certificates"]["corner"] == "exact-pass"
    monkeypatch.setattr(cli, "corner_witness", lambda *a: None)
    assert main(fm) == 1
    assert json.loads(capsys.readouterr().out)["certificates"]["corner"] == "fail"

    x1 = {"dim": 1, "terms": [{"lambda": [["0/1", "0/1"]],
                               "poly": [{"alpha": [1], "coeff": "1"}]}]}
    diamond = ["space", "diamond", "--field", SQRT2, "--space",
               json.dumps({"dim": 1, "basis": [x1]}), "--ops", '[{"delta":{"h":["1/1"]},"power":2}]']
    assert main(diamond) == 0
    capsys.readouterr()
    real_saturate = cli.saturate
    monkeypatch.setattr(cli, "saturate", lambda *a, **k: dataclasses.replace(
        real_saturate(*a, **k), capped=True))
    assert main(diamond) == 1
    assert json.loads(capsys.readouterr().out)["certificates"]["saturation_agrees"] == "fail"

    divide = ["op", "divide", "--step", '["1/1"]', "-p", "2", "-n", "1"]
    assert main(divide) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "divisibility_factor",
                        lambda field, h, p, n: TranslationPolynomial.zero(field, len(h)))
    assert main(divide) == 1
    assert json.loads(capsys.readouterr().out)["identity"] == "fail"


def test_heuristic_float_closure():
    # float generators get no heuristic answer: a float with a fraction part
    # is refused, and the same generators given exactly are closed exactly
    r = run_cli(["group", "closure", "--generators", "[[1.0],[0.3333333333]]"])
    assert r.returncode == 2
    assert "float scalar 0.3333333333 is not exact" in r.stderr
    r = run_cli(["group", "closure", "--generators", '[["1/1"],["1/3"]]'])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["dense"] is False and doc["Lambda"] == ["1/3"]
    assert "heuristic" not in doc


def test_prop7_hyperplane_override():
    outer = {"dim": 2, "terms": [{
        "lambda": [[{"coords": ["1/1", "0/1"]}, {"coords": ["0/1", "0/1"]}],
                   [{"coords": ["0/1", "0/1"]}, {"coords": ["0/1", "0/1"]}]],
        "poly": [{"alpha": [0, 0], "coeff": "1"}]}]}
    gens = '[["1/1","0/1"],[{"coords":["0/1","1/1"]},"0/1"],["0/1","1/1"]]'
    r = run_cli(["construct", "prop7", "--field", SQRT2, "--generators", gens,
                 "--outer", json.dumps(outer), "-m", "1",
                 "--hyperplane", '[["1/1","0/1"]]'])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["certificates"]["h_invariance"] == "exact-pass"
    # a hyperplane that misses V is rejected as malformed input
    r2 = run_cli(["construct", "prop7", "--field", SQRT2, "--generators", gens,
                  "--outer", json.dumps(outer), "-m", "1",
                  "--hyperplane", '[["0/1","1/1"]]'])
    assert r2.returncode == 2


def _prop7_variant(F, variant, d, m):
    """argv of construct prop7 on Z x theta Z x Z (times Z^(d-2) in zeros)
    in one of the benchmark's generator variants, or over a tilted
    hyperplane, with the outer function e^(x_1)."""
    one, zero, th = F.one(), F.zero(), F.gen()
    pad = (zero,) * (d - 2)
    q = {"rescaled": (Fraction(1, 2), Fraction(3), Fraction(3, 2))}.get(variant, (1, 1, 1))
    gens = [(one * q[0], zero) + pad, (th * q[1], zero) + pad, (zero, one * q[2]) + pad]
    if variant == "extra":
        gens.append((F.rational(Fraction(2, 3)), F.rational(2)) + pad)
    if variant == "hyperplane":
        gens.append((zero, zero, one))
    outer = ExpPolynomial.exponential(F, d, (calg(F, 1),) + (calg(F, 0),) * (d - 1))
    argv = ["construct", "prop7", "--field", SQRT2, "-m", str(m),
            "--generators", json.dumps([jsonio.encode_vector(g) for g in gens]),
            "--outer", json.dumps(jsonio.encode_exppoly(outer))]
    if variant == "hyperplane":
        argv += ["--hyperplane", '[["1/1","0/1","0/1"],["0/1","1/1","1/1"]]']
    return argv


@pytest.mark.parametrize("variant, d", [("base", 2), ("base", 3), ("rescaled", 2),
                                        ("rescaled", 3), ("extra", 2), ("extra", 3),
                                        ("hyperplane", 3)])
@pytest.mark.parametrize("m", [1, 2])
def test_prop7_corner_is_the_frame_corner(capsys, variant, d, m):
    # the witness sits at z0 = -(r/2) w, where the slope of phi along w
    # jumps by exactly 2 / (r |w|)
    F = make_field([-2, 0, 1], (1, 2))
    assert main(_prop7_variant(F, variant, d, m)) == 0
    doc = json.loads(capsys.readouterr().out)
    frame = jsonio.decode_frame(F, doc["objects"]["frame"])
    w = np.array([float(x) for x in frame.w])
    witness = doc["corner_witness"]
    assert doc["certificates"]["corner"] == "exact-pass"
    assert witness["direction"] == list(w)
    assert witness["point"] == [float(frame.r * Fraction(-1, 2) * x) for x in frame.w]
    want = 2 / (float(frame.r) * np.linalg.norm(w))
    assert abs(witness["gap"] - want) <= 1e-9 * want, (witness["gap"], want)


def test_high_tower_orders_stay_finite(capsys):
    # exact tower weights: C(k, m - 1) overflowed the falling product in
    # floats (NaN residuals at m = 170, OverflowError at m = 200)
    for m in ("170", "200"):
        assert main(["construct", "fm", "-m", m]) == 0, m
        out = capsys.readouterr().out
        assert "NaN" not in out and "Infinity" not in out, m


def test_fit_cosets_dense_gate():
    e = {"dim": 1, "terms": [{"lambda": [[{"coords": ["0/1", "0/1"]},
                                          {"coords": ["0/1", "0/1"]}]],
                              "poly": [{"alpha": [0], "coeff": "1"}]}]}
    closure = {"generators": [["1/1"], [{"coords": ["0/1", "1/1"]}]]}
    space = {"dim": 1, "basis": [e]}
    r = run_cli(["fit", "cosets", "--field", SQRT2,
                 "--function", json.dumps({"kind": "exppoly", "poly": e}),
                 "--closure", json.dumps(closure), "--space", json.dumps(space),
                 "--orders", '[{"h":["1/1"],"n":1}]', "--lambdas", '[["0/1"]]'])
    assert r.returncode == 4


def test_json_roundtrips():
    rng = rng_for("jsonio")
    F = make_field([-2, 0, 1], (1, 2))
    assert jsonio.decode_field(jsonio.encode_field(F)) == F
    for _ in range(10):
        c = random_expcoef(rng, F)
        assert jsonio.decode_expcoef(F, jsonio.encode_expcoef(c)) == c
        f = random_exppoly(rng, F, dim=2, max_freqs=2, max_deg=2)
        assert jsonio.decode_exppoly(F, jsonio.encode_exppoly(f)) == f
    D = TranslationPolynomial.delta(F, (F.gen(),), 2)
    assert jsonio.decode_op(F, jsonio.encode_op(D)) == D
    frac_den = ExpCoefficient.one(F) / (
        ExpCoefficient.exponential(F, calg(F, F.gen())) - 1)
    assert jsonio.decode_expcoef(F, jsonio.encode_expcoef(frac_den)) == frac_den


def test_function_tree_roundtrip():
    from deltaclose.construct import make_fm
    F = make_field([-2, 0, 1], (1, 2))
    fm = make_fm(3, F.one())
    doc = jsonio.encode_function(fm)
    back = jsonio.decode_function(F, doc)
    import numpy as np
    xs = np.linspace(-5, 5, 101)[:, None]
    assert np.max(np.abs(fm.eval_array(xs) - back.eval_array(xs))) == 0


def test_main_entrypoint_in_process(capsys):
    rc = main(["group", "closure", "--generators", '[["1/1"],["1/2"]]'])
    assert rc == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["Lambda"] == ["1/2"]


def test_in_process_calls_share_one_parser(tmp_path, capsys):
    """main() builds its parser once per process; consecutive in-process calls
    print what a fresh process prints, with no option value carried over."""
    import pytest

    from deltaclose import cli

    fm_out = tmp_path / "fm3.json"
    prop7_out = tmp_path / "prop7.json"
    outer = json.dumps({"dim": 2, "terms": [{
        "lambda": [[{"coords": ["1/1", "0/1"]}, {"coords": ["0/1", "0/1"]}],
                   [{"coords": ["0/1", "0/1"]}, {"coords": ["0/1", "0/1"]}]],
        "poly": [{"alpha": [0, 0], "coeff": "1"}]}]})
    gens = '[["1/1","0/1"],[{"coords":["0/1","1/1"]},"0/1"],["0/1","1/1"]]'
    prop7 = ["construct", "prop7", "--field", SQRT2, "--generators", gens, "--outer", outer]
    calls = [
        (["construct", "fm", "-m", "0"], 2),
        (["construct", "fm", "-m", "3", "--period", "2", "--seed", "5", "--out", str(fm_out)], 0),
        (["construct", "fm", "-m", "2"], 0),
        (["verify", "grid", "--function", str(fm_out), "--op", "delta h=2 m=3",
          "--grid=-6,6,41"], 0),
        (prop7 + ["-m", "2", "--out", str(prop7_out)], 0),
        (prop7, 0),
    ]
    with pytest.raises(SystemExit) as usage:
        main(["construct", "fm"])   # -m is required: an argparse usage error
    assert usage.value.code == 2
    built = cli._PARSER
    assert built is not None
    capsys.readouterr()
    outs = []
    for argv, code in calls:
        if argv[-1] == str(fm_out):
            # the --out file comes from this call, then feeds verify grid
            assert not fm_out.exists()
        rc = main(argv)
        outs.append(capsys.readouterr().out)
        fresh = run_cli(argv)
        assert (rc, outs[-1]) == (fresh.returncode, fresh.stdout), argv
        assert rc == code, argv
        assert cli._PARSER is built
    # the last call, without --out, left the earlier --out file alone
    assert prop7_out.read_text() == outs[4] != outs[5]


def _subcommands(parser, prefix=()):
    """(command words, parser) of every leaf subcommand of ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _subcommands(child, prefix + (name,))
            return
    yield " ".join(prefix), parser


# every option string of each subcommand; the shared ones (--field, --seed,
# --tolerance-atol, --tolerance-rtol, --out) only where the handler reads them
SURFACE = {
    "group closure": "--field --out --generators",
    "op expand": "--field --out --steps --powers -N",
    "op divide": "--field --out --step -p -n",
    "space diamond": "--field --out --space --ops",
    "solve": "--out --system",
    "kernel": "--field --out --steps --cap",
    "construct triangle": "--field --seed --out --period",
    "construct fm": "--field --seed --out -m --period",
    "construct prop7": "--field --out --generators --outer -m --hyperplane",
    "verify grid": "--field --tolerance-atol --tolerance-rtol --out --function --op --grid",
    "fit cosets": "--field --tolerance-atol --out --function --closure --space --orders "
                  "--lambdas --grid-count --grid-halfwidth",
}
SHARED_DEFAULTS = {
    "construct triangle": {"seed": 0}, "construct fm": {"seed": 0},
    "verify grid": {"tolerance_atol": 1e-8, "tolerance_rtol": 1e-9},
    "fit cosets": {"tolerance_atol": 1e-8},
}
DENSE_STEPS = '[{"h":["1/1"],"m":2},{"h":[{"coords":["0/1","1/1"]}],"m":2}]'
ZERO_SYSTEM = json.dumps({"field": json.loads(SQRT2), "dim": 1,
                          "steps": [{"h": ["1/1"], "m": 1}], "rhs": [{"dim": 1, "terms": []}]})
# a shared option the handler does not read, on a call that is good without it
UNREAD = {
    "solve": ["solve", "--field", SQRT2, "--system", ZERO_SYSTEM],
    "group closure": ["group", "closure", "--seed", "1", "--generators", '[["1/1"],["1/2"]]'],
    "kernel": ["kernel", "--tolerance-atol", "1", "--field", SQRT2, "--steps", DENSE_STEPS,
               "--cap", "2"],
    "construct fm": ["construct", "fm", "--tolerance-rtol", "1", "-m", "2"],
    "construct prop7": ["construct", "prop7", "--generators", '[["1/1"],["1/2"]]',
                        "--outer", '{"dim":1,"terms":[]}', "--tolerance-atol", "1e-6"],
}


def test_option_surface_lists_every_subcommand():
    assert sorted(dict(_subcommands(cli.build_parser()))) == sorted(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_option_surface(command, capsys):
    parser = dict(_subcommands(cli.build_parser()))[command]
    options = [s for a in parser._actions for s in a.option_strings
               if s not in ("-h", "--help")]
    assert options == SURFACE[command].split()
    for dest, default in SHARED_DEFAULTS.get(command, {}).items():
        assert parser.get_default(dest) == default, dest
    if command in UNREAD:
        with pytest.raises(SystemExit) as usage:
            main(UNREAD[command])
        assert usage.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# known-good calls of seven subcommands, each with the JSON arguments whose
# nodes the sweep below replaces; orders, powers and dimensions stay small so
# that no example builds a large operator or walks a long orbit
X_OVER_Q = {"dim": 1, "terms": [{"lambda": [["0/1", "0/1"]],
                                 "poly": [{"alpha": [1], "coeff": "1"}]}]}
SWEEP_CALLS = [
    (["group", "closure"], {"--generators": [["1/1"], ["1/2"]]}),
    (["op", "expand", "-N", "1"], {"--steps": [["1/1"], ["1/2"]], "--powers": [1, 1]}),
    (["op", "divide", "-p", "2", "-n", "1"], {"--step": ["1/2"]}),
    (["space", "diamond"], {"--space": {"dim": 1, "basis": [X_OVER_Q]},
                            "--ops": [{"delta": {"h": ["1/1"], "m": 1}, "power": 1}]}),
    (["solve"], {"--system": json.loads(ZERO_SYSTEM)}),
    (["kernel", "--cap", "2"], {"--field": json.loads(SQRT2),
                                "--steps": json.loads(DENSE_STEPS)}),
    (["construct", "prop7"], {"--generators": [["1/1"], ["1/2"]],
                              "--outer": {"dim": 1, "terms": []}}),
]


def _paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


_sweep_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-7, 3),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 0.5, -2.0]),
    st.sampled_from(["", "x", "1/2", "-1", "1/0", "{", "@"]))
_sweep_values = st.recursive(
    _sweep_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["h", "m", "n", "dim", "terms", "basis", "poly",
                                         "lambda", "alpha", "coeff", "delta", "power",
                                         "minpoly", "interval"]), inner, max_size=3)),
    max_leaves=6)


@st.composite
def _sweep_argv(draw):
    fixed, docs = draw(st.sampled_from(SWEEP_CALLS))
    option = draw(st.sampled_from(sorted(docs)))
    path = draw(st.sampled_from(list(_paths(docs[option]))))
    docs = dict(docs, **{option: _replaced(docs[option], path, draw(_sweep_values))})
    # --opt=value, so that a value such as -Infinity is not read as an option
    return fixed + [f"{opt}={json.dumps(doc)}" for opt, doc in docs.items()]


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_sweep_argv())
def test_generated_arguments_get_a_typed_exit_code(argv):
    # one node of one JSON argument of a good call replaced by a generated
    # value: every outcome is a verdict or a typed refusal, never a crash
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3, 4, 5), argv
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())


# -- float work of verify grid and construct fm ---------------------------------

def _count_eval_sizes(monkeypatch, cls):
    """The point counts of every ``cls.eval_array`` call, recorded in order."""
    sizes = []
    raw = cls.eval_array

    def counted(self, pts):
        sizes.append(len(pts))
        return raw(self, pts)

    monkeypatch.setattr(cls, "eval_array", counted)
    return sizes


@pytest.mark.parametrize("m, fn, cls", [
    (2, jsonio.dumps(jsonio.encode_function(make_fm(2, make_field([0, 1], (-1, 1)).one()))),
     construct.AntiDifference),
    (3, '{"kind":"exppoly","poly":{"dim":1,"terms":[{"lambda":[["0/1","0/1"]],'
        '"poly":[{"alpha":[2],"coeff":"1"}]}]}}', construct.ExpPolyLeaf),
])
def test_verify_grid_evaluates_f_once(monkeypatch, capsys, m, fn, cls):
    # the residual and the tolerance scale max |f| both read one eval_array
    # call on the m + 1 shifts of the grid stacked
    sizes = _count_eval_sizes(monkeypatch, cls)
    assert main(["verify", "grid", "--function", fn, "--op", f"delta h=1 m={m}",
                 "--grid=-3,3,61"]) == 0
    assert sizes == [(m + 1) * 61]
    doc = json.loads(capsys.readouterr().out)
    f = jsonio.decode_function(make_field([0, 1], (-1, 1)), json.loads(fn))
    pts = np.linspace(-3, 3, 61)[:, None]
    assert doc["tolerance"] == 1e-8 + 1e-9 * max(1.0, float(np.max(np.abs(f.eval_array(pts)))))
    assert doc["max_residual"] == float(np.max(np.abs(
        construct.difference_values(f, (1.0,), m, pts))))


def _fm_certificates_two_calls(m: int, period: str, seed: int = 0):
    """The residuals of ``construct fm`` computed as before, with the tower
    evaluated once per difference order."""
    F = make_field([0, 1], (-1, 1))
    P = F.rational(Fraction(period))
    fm, wave = make_fm(m, P), construct.make_triangle_wave(P)
    xs = np.random.default_rng(seed).uniform(-20 * float(P), 20 * float(P), 10000)[:, None]
    top = float(np.max(np.abs(construct.difference_values(fm, (float(P),), m, xs))))
    below = construct.difference_values(fm, (float(P),), m - 1, xs) if m > 1 \
        else fm.eval_array(xs)
    return top, float(np.max(np.abs(below - wave.eval_array(xs))))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("period", ["1", "1/3", "7/2"])
def test_construct_fm_evaluates_the_tower_once(monkeypatch, capsys, m, period):
    sizes = []
    raw_make_fm = cli.make_fm

    def make_fm_counted(*a):
        fm = raw_make_fm(*a)
        raw_eval = fm.eval_array

        def counted(pts):
            sizes.append(len(pts))
            return raw_eval(pts)

        fm.eval_array = counted
        return fm

    monkeypatch.setattr(cli, "make_fm", make_fm_counted)
    assert main(["construct", "fm", "-m", str(m), "--period", period]) == 0
    certs = json.loads(capsys.readouterr().out)["certificates"]
    # one call on xs + k P, k = 0 .. m, then only the corner search
    assert sizes[0] == (m + 1) * 10000
    assert all(n % 10000 for n in sizes[1:])
    top, wave_resid = _fm_certificates_two_calls(m, period)
    assert certs["top_difference_residual"] == top
    assert certs["tower_step_residual"] == wave_resid


# -- a warm process prints what a cold one prints -------------------------------

QUARTIC_FIELD = '{"minpoly":["1","0","-10","0","1"],"interval":["31/10","32/10"]}'


def _e_theta_x1(degree: int) -> str:
    """e^(theta x_1) on R^2 over a field of the given degree: its float plan
    refines theta to 2^-64, which later floats of the field start from."""
    theta = {"coords": ["0/1", "1/1"] + ["0/1"] * (degree - 2)}
    zero = {"coords": ["0/1"] * degree}
    return json.dumps({"dim": 2, "terms": [{"lambda": [[theta, zero], [zero, zero]],
                                             "poly": [{"alpha": [0, 0], "coeff": "1"}]}]})


def test_warm_process_prints_what_a_cold_one_prints(tmp_path, capsys):
    # in-process calls share one field object per declaration (its refined
    # root enclosure and float memo carry over); a fresh process starts cold
    sqrt2_doc, quartic_doc = tmp_path / "sqrt2.json", tmp_path / "quartic.json"
    theta_gens = '[["1/1","0/1"],[{"coords":["0/1","1/1"]},"0/1"],["0/1","1/1"]]'
    rescaled = '[["1/2","0/1"],[{"coords":["0/1","3/2","0/1","0/1"]},"0/1"],["0/1","2/3"]]'
    closure, space = tmp_path / "closure.json", tmp_path / "space.json"
    orders = json.dumps([{"h": g, "n": 1} for g in json.loads(theta_gens)])
    calls = [
        ["construct", "prop7", "--field", SQRT2, "--generators", theta_gens,
         "--outer", _e_theta_x1(2), "--out", str(sqrt2_doc)],
        ["construct", "prop7", "--field", QUARTIC_FIELD, "--generators", rescaled,
         "--outer", _e_theta_x1(4), "-m", "2", "--out", str(quartic_doc)],
        ["fit", "cosets", "--function", str(sqrt2_doc), "--closure", f"@{closure}",
         "--space", f"@{space}", "--orders", orders, "--lambdas", '[["0/1","0/1"],["0/1","1/1"]]'],
        ["verify", "grid", "--function", str(quartic_doc), "--op", 'delta h=["0/1","2/3"] m=2',
         "--grid=-1,1,9;-1,1,9"],
        ["construct", "fm", "-m", "3", "--period", "7/2", "--field", QUARTIC_FIELD],
    ]
    warm = []
    for argv in calls:
        if argv[0] == "fit":
            objects = json.loads(sqrt2_doc.read_text())["objects"]
            closure.write_text(json.dumps(objects["frame"]["closure"]))
            space.write_text(json.dumps(objects["H"]))
        rc = main(argv)
        warm.append((argv, rc, capsys.readouterr().out))
    # the calls over each field shared one field object, whose float memo
    # is now filled
    for field in (SQRT2, QUARTIC_FIELD):
        assert jsonio.decode_field(json.loads(field))._floats
    for argv, rc, out in warm:
        cold = run_cli(argv)
        assert (cold.returncode, cold.stdout) == (rc, out), argv[:2]
        assert rc == 0, argv[:2]


def test_warm_float_does_not_depend_on_earlier_calls(tmp_path, capsys):
    # a first call refines theta far past 2^-64 (the float of 10^30 theta);
    # a later call's float of theta - 99/70, within 10^-4 of zero where the
    # ulp is below the 2^-64 enclosure width, is still the one a fresh
    # process prints
    F = make_field([-2, 0, 1], (Fraction(5, 4), Fraction(3, 2)))  # this test's own field
    docs = []
    for c in (F.gen() * 10 ** 30, F.gen() - Fraction(99, 70)):
        doc = tmp_path / f"f{len(docs)}.json"
        f = ExpPolynomial.monomial(F, 1, (0,), c)
        doc.write_text(jsonio.dumps(jsonio.manifest(F, {
            "function": jsonio.encode_function(construct.ExpPolyLeaf(f))})))
        docs.append(["verify", "grid", "--function", str(doc), "--op", "delta h=1 m=0",
                     "--grid=0,1,3"])
    warm = []
    for argv in docs:
        assert main(argv) == 1   # delta^0 f = f is not zero: the check fails
        warm.append(capsys.readouterr().out)
    assert json.loads(warm[1])["max_residual"] == abs(float(F.gen() - Fraction(99, 70)))
    cold = run_cli(docs[1])
    assert (cold.returncode, cold.stdout) == (1, warm[1])
