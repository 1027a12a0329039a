"""The four benchmark workloads.

Each workload is a class with

* ``warm_up``: whether an untimed first pass warms the process up;
* ``setup()``: the fixed objects every pass starts from (field declarations
  and constants); called once per pass, so every pass gets new
  ``NumberField`` objects and no refined root enclosure carries over;
* ``inputs(ctx, rng)``: the run's inputs, drawn once from the seeded stream,
  in field-free form (``jsonio`` encodings and plain numbers);
* ``items(ctx, inputs)``: one pass's items, decoded into ``ctx``'s fields
  before timing.  Each item has ``run()`` (the one timed call),
  ``check(out)`` (the independent oracle, run untimed) and ``exact(out)``
  (the canonical JSON of the exact outputs that go into the digest, or
  None).  ``cheap_check`` says whether the oracle runs on every pass;
  otherwise it runs on the first pass and later passes must reproduce the
  first pass's digests.

Item shapes (field, step orders, frequencies, monomial degrees) come from a
fixed per-workload design stream, and the seed draws the coefficients,
offsets, scalings and item order.  That keeps every seed's pass the same
kind and amount of work, so the figures of different seeds can be compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import zlib
from fractions import Fraction

import deltaclose.cli as cli
from deltaclose import calg, construct, exppoly, jsonio, make_field, opalg, solver, subspace

SQRT2 = ([-2, 0, 1], (1, 2))
QUARTIC = ([1, 0, -10, 0, 1], (Fraction(31, 10), Fraction(32, 10)))  # Q(sqrt2 + sqrt3)


def seed_stream(workload: str, seed: int) -> random.Random:
    # crc32 keeps the stream stable across interpreter runs (str hash is not)
    return random.Random(zlib.crc32(f"{workload}:{seed}".encode()))


def design_stream(workload: str) -> random.Random:
    return random.Random(zlib.crc32(f"{workload}:design".encode()))


def freq_pool(field, dim):
    """Structured frequencies: zero, rational, irrational and imaginary
    directions along each axis."""
    zero = calg(field, 0)
    singles = [zero, calg(field, 1), calg(field, field.gen()),
               calg(field, 0, 1), calg(field, Fraction(-1, 2))]
    pool = []
    for s in singles:
        for pos in range(dim):
            vec = tuple(s if i == pos else zero for i in range(dim))
            if vec not in pool:
                pool.append(vec)
    return pool


def random_shape(d: random.Random, pool_size: int, dim: int, max_freqs: int, max_deg: int):
    """[(pool index, [alpha, ...]), ...] for one exponential polynomial."""
    shape = []
    for idx in d.sample(range(pool_size), d.randint(1, max_freqs)):
        alphas = [tuple(d.randint(0, max_deg) for _ in range(dim))
                  for _ in range(d.randint(1, 2))]
        shape.append((idx, [a for a in alphas if sum(a) <= max_deg]))
    return shape


def coefficient(rng: random.Random) -> Fraction:
    c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return c if c else Fraction(1)


def build_exppoly(field, dim, pool, shape, rng):
    f = exppoly.ExpPolynomial.zero(field, dim)
    for idx, alphas in shape:
        for alpha in alphas:
            f = f + exppoly.ExpPolynomial.monomial(field, dim, alpha, coefficient(rng),
                                                   freq=pool[idx])
    if f.is_zero():
        f = exppoly.ExpPolynomial.monomial(field, dim, (0,) * dim, 1)
    return f


def run_cli(argv):
    """In-process ``deltaclose`` invocation: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# roundtrip: reconstruction from forward differences
# ---------------------------------------------------------------------------

class Roundtrip:
    """``solve_difference_system`` on acceptance-4-style systems: 70% over
    Q(sqrt2), d=1, 2-3 steps including theta; 30% over Q(sqrt2+sqrt3), d=2,
    three steps; max_freqs=4, max_deg=3."""

    size = 100
    warm_up = True

    def __init__(self):
        d = design_stream("roundtrip")
        self.shapes = []
        for i in range(self.size):
            if i % 10 < 7:
                orders = [d.randint(1, 3), d.randint(1, 3)]
                third = (Fraction(d.randint(1, 3), d.randint(1, 2)), d.randint(1, 3)) \
                    if d.random() < 0.5 else None
                self.shapes.append((1, orders, third, random_shape(d, 5, 1, 4, 3)))
            else:
                orders = [d.randint(1, 2) for _ in range(3)]
                self.shapes.append((2, orders, None, random_shape(d, 9, 2, 4, 3)))

    def setup(self):
        F, G4 = make_field(*SQRT2), make_field(*QUARTIC)
        mu = G4.gen()
        s2, s3 = (mu ** 3 - mu * 9) / 2, (mu * 11 - mu ** 3) / 2
        return {"F": F, "G4": G4, "diag": (s2, s3),
                "pool1": freq_pool(F, 1), "pool2": freq_pool(G4, 2)}

    @staticmethod
    def system_of(ctx, dim, orders, third):
        """(field, steps) of one shape in ctx's fields."""
        if dim == 1:
            F = ctx["F"]
            steps = [((F.one(),), orders[0]), ((F.gen(),), orders[1])]
            if third is not None:
                steps.append(((F.rational(third[0]),), third[1]))
            return F, steps
        G4 = ctx["G4"]
        return G4, [((G4.one(), G4.zero()), orders[0]), ((G4.zero(), G4.one()), orders[1]),
                    (ctx["diag"], orders[2])]

    def inputs(self, ctx, rng):
        out = []
        for dim, orders, third, shape in self.shapes:
            field, steps = self.system_of(ctx, dim, orders, third)
            f = build_exppoly(field, dim, ctx[f"pool{dim}"], shape, rng)
            out.append(((dim, orders, third), jsonio.encode_exppoly(f),
                        [jsonio.encode_exppoly(f.forward_difference(h, m)) for h, m in steps]))
        rng.shuffle(out)
        return out

    def items(self, ctx, inputs):
        out = []
        for (dim, orders, third), f, rhs in inputs:
            field, steps = self.system_of(ctx, dim, orders, third)
            system = solver.DifferenceSystem(
                field, dim, steps, [jsonio.decode_exppoly(field, g) for g in rhs])
            out.append(RoundtripItem(system, jsonio.decode_exppoly(field, f)))
        return out


class RoundtripItem:
    cheap_check = False

    def __init__(self, system, f):
        self.system, self.f = system, f

    def run(self):
        return solver.solve_difference_system(self.system)

    def check(self, sol):
        for (h, m), g in zip(self.system.steps, self.system.rhs):
            require(sol.particular.forward_difference(h, m) == g,
                    "a forward difference of the particular solution misses its rhs")
        require(solver.in_kernel_span(sol.particular - self.f, sol.kernel_basis),
                "particular - f is not in the kernel span")

    def exact(self, sol):
        return {"particular": jsonio.encode_exppoly(sol.particular),
                "kernel": [jsonio.encode_exppoly(k) for k in sol.kernel_basis]}


# ---------------------------------------------------------------------------
# diamond: spans and invariant closures in the group ring
# ---------------------------------------------------------------------------

class Diamond:
    """``FunctionSubspace.span`` + ``invariant_closure`` on acceptance-3-style
    instances over Q(sqrt2): d=1, max_freqs=2, max_deg=2, one or two
    difference operators with steps p/q and powers 1-2."""

    size = 100
    warm_up = True

    def __init__(self):
        d = design_stream("diamond")
        self.shapes = []
        for _ in range(self.size):
            shape = random_shape(d, 5, 1, 2, 2)
            ops = [(Fraction(d.randint(1, 3), d.randint(1, 2)), d.randint(1, 2))
                   for _ in range(d.randint(1, 2))]
            self.shapes.append((shape, ops))

    def setup(self):
        F = make_field(*SQRT2)
        return {"F": F, "pool": freq_pool(F, 1)}

    def inputs(self, ctx, rng):
        F = ctx["F"]
        out = []
        for shape, ops in self.shapes:
            f = build_exppoly(F, 1, ctx["pool"], shape, rng)
            gens = [f]
            for h, m in ops:
                gens.extend(exppoly.translation_hull(f.forward_difference((F.rational(h),), m)))
            out.append(([jsonio.encode_exppoly(g) for g in gens], ops))
        rng.shuffle(out)
        return out

    def items(self, ctx, inputs):
        F = ctx["F"]
        return [DiamondItem(F, [jsonio.decode_exppoly(F, g) for g in gens],
                            [(opalg.TranslationPolynomial.delta(F, (F.rational(h),), 1, dim=1), m)
                             for h, m in ops])
                for gens, ops in inputs]


class DiamondItem:
    cheap_check = False

    def __init__(self, field, gens, ops):
        self.field, self.gens, self.ops = field, gens, ops

    def run(self):
        V = subspace.FunctionSubspace.span(self.gens, dim=1, field=self.field)
        return V, subspace.invariant_closure(V, self.ops)

    def check(self, out):
        V, closed = out
        oracle = subspace.saturate(V, [L for L, _ in self.ops], cap=64)
        require(not oracle.capped, "saturation oracle hit its cap")
        require(closed.equals(oracle.space), "closure differs from the saturation oracle")
        if len(self.ops) > 1:  # relabeling a single operator is the identity
            relabeled = subspace.invariant_closure(V, list(reversed(self.ops)))
            require(closed.equals(relabeled), "closure depends on the operator order")
        require(closed.contains_all(V.basis_polynomials()), "closure misses V")
        for L, _ in self.ops:
            require(closed.is_invariant_under(L), "closure is not invariant")

    def exact(self, out):
        return jsonio.encode_space(out[1])


# ---------------------------------------------------------------------------
# tower_grid: float evaluation of the f_m antidifference towers
# ---------------------------------------------------------------------------

class TowerGrid:
    """In-process ``verify grid`` of delta_1^m f_m = 0 for m = 2..5 (20, 35,
    25 and 20 items), 401 points on windows at least 20 periods wide."""

    # cost grows about 4x per order; these counts put the median inside the
    # m=3 items and the 90th percentile inside the m=5 items, away from the
    # jumps between orders
    counts = {2: 20, 3: 35, 4: 25, 5: 20}
    points = 401
    warm_up = True

    def setup(self):
        F = make_field(*SQRT2)
        docs = {m: jsonio.dumps(jsonio.manifest(F, {
            "function": jsonio.encode_function(construct.make_fm(m, F.one()))}))
            for m in self.counts}
        return {"docs": docs}

    def inputs(self, ctx, rng):
        out = []
        for m, per in self.counts.items():
            for j in range(per):
                # stratified offsets keep the lattice extent, which sets the
                # cost, equally spread in every seed
                lo = -10.0 - (j + rng.random()) / per
                hi = lo + 20.0 + rng.random()
                out.append(["verify", "grid", "--function", ctx["docs"][m],
                            "--op", f"delta h=1 m={m}", f"--grid={lo!r},{hi!r},{self.points}"])
        rng.shuffle(out)
        return out

    def items(self, ctx, inputs):
        return [TowerItem(argv) for argv in inputs]


class TowerItem:
    cheap_check = True

    def __init__(self, argv):
        self.argv = argv

    def run(self):
        return run_cli(self.argv)

    def check(self, out):
        rc, text = out
        require(rc == 0, f"verify grid exited {rc}")
        doc = json.loads(text)
        require(doc["max_residual"] <= doc["tolerance"], "residual above the tolerance")

    def exact(self, out):
        return None


# ---------------------------------------------------------------------------
# prop7_pipeline: construct prop7, then fit cosets, through the CLI
# ---------------------------------------------------------------------------

class Prop7Pipeline:
    """In-process ``construct prop7`` then ``fit cosets`` (one invocation is
    one item) on variants of the acceptance-6 instance: d in {2, 3}, m in
    {1, 2}, base / rescaled / extra generators (all non-dense), outer
    frequency 1, theta, i or -1/2 along the dense axis; 50 instances, 100
    items."""

    groups = {(2, 1): 13, (2, 2): 13, (3, 1): 12, (3, 2): 12}  # (d, m): instances
    # No warm-up pass: this is the longest pass (15-25 s), its first pass ran
    # only about 5% slower than later ones, and its cheap checks run on every
    # pass anyway; a warm-up would nearly double the workload's run time.
    warm_up = False
    # generator variant by instance index within a (d, m) group: an extra
    # generator with m=2 makes the slowest items (about 3x the next ones), so
    # they are kept to 4 of 100 and the 90th percentile falls inside the next
    # tier instead of on the jump between the two
    variants = ("base", "rescaled", "base", "rescaled", "base", "extra")
    scales = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2), Fraction(3))
    extras = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))

    def setup(self):
        F = make_field(*SQRT2)
        return {"F": F, "field_json": jsonio.dumps(jsonio.encode_field(F)),
                "freqs": [calg(F, 1), calg(F, F.gen()), calg(F, 0, 1),
                          calg(F, Fraction(-1, 2))]}

    def inputs(self, ctx, rng):
        F = ctx["F"]
        one, zero, th = F.one(), F.zero(), F.gen()
        out = []
        for (dim, m), count in self.groups.items():
            pad = (zero,) * (dim - 2)
            for j in range(count):
                variant = self.variants[j % len(self.variants)]
                q = [rng.choice(self.scales) for _ in range(3)] if variant == "rescaled" \
                    else [1, 1, 1]
                gens = [(one * q[0], zero) + pad, (th * q[1], zero) + pad,
                        (zero, one * q[2]) + pad]
                if variant == "extra":
                    gens.append((F.rational(rng.choice(self.extras)),
                                 F.rational(rng.randint(1, 3))) + pad)
                freq = (rng.choice(ctx["freqs"]),) + (calg(F, 0),) * (dim - 1)
                outer = exppoly.ExpPolynomial.exponential(F, dim, freq)
                out.append((["construct", "prop7", "--field", ctx["field_json"],
                             "--generators", json.dumps([jsonio.encode_vector(g) for g in gens]),
                             "--outer", json.dumps(jsonio.encode_exppoly(outer)), "-m", str(m)],
                            dim, [{"h": jsonio.encode_vector(g), "n": m} for g in gens]))
        rng.shuffle(out)
        return out

    def items(self, ctx, inputs):
        out = []
        for argv, dim, orders in inputs:
            fit = Prop7Fit(dim, orders)
            out += [Prop7Construct(argv, fit), fit]
        return out


class Prop7Construct:
    cheap_check = True

    def __init__(self, argv, fit):
        self.argv, self.fit = argv, fit

    def run(self):
        return run_cli(self.argv)

    def check(self, out):
        rc, text = out
        require(rc == 0, f"construct prop7 exited {rc}")
        doc = json.loads(text)
        certs = doc["certificates"]
        require(certs["h_invariance"] == "exact-pass", "H is not invariant")
        require(certs["corner"] == "exact-pass", "no corner witness")
        self.fit.prepare(text, doc)

    def exact(self, out):
        objects = json.loads(out[1])["objects"]
        return {"H": objects["H"], "frame": objects["frame"]}


class Prop7Fit:
    cheap_check = True

    def __init__(self, dim, orders):
        self.dim, self.orders = dim, orders
        self.argv = None

    def prepare(self, construct_text, doc):
        """Arguments from the construct document, built outside timing."""
        closure = doc["objects"]["frame"]["closure"]
        self.argv = ["fit", "cosets", "--function", construct_text,
                     "--closure", json.dumps(closure),
                     "--space", json.dumps(doc["objects"]["H"]),
                     "--orders", json.dumps(self.orders),
                     "--lambdas", json.dumps([["0/1"] * self.dim, closure["Lambda"][-1]])]

    def run(self):
        if self.argv is None:
            raise CheckFailed("the construct step before this fit failed")
        return run_cli(self.argv)

    def check(self, out):
        rc, text = out
        require(rc == 0, f"fit cosets exited {rc}")
        slices = json.loads(text)["objects"]["slices"]
        require(len(slices) == 2, "expected two fitted slices")
        require(all(s["residual"] <= 1e-8 for s in slices), "slice residual above 1e-8")

    def exact(self, out):
        return json.loads(out[1])["objects"]["completion_steps"]


WORKLOADS = {
    "roundtrip": Roundtrip,
    "diamond": Diamond,
    "tower_grid": TowerGrid,
    "prop7_pipeline": Prop7Pipeline,
}
