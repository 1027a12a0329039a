"""Canonical JSON encodings for every document the CLI reads or writes.

Scalars are strings "p/q" so round trips are loss-free; the field is declared
once per document; lists are emitted in canonical (sorted) order so identical
inputs produce byte-identical output.  ``parse_frac`` is the one reader of
rationals and ``parse_int`` the one reader of integers; a JSON number with a
fraction part is refused wherever a scalar is read, because the JSON reader
has already rounded it to binary.  The float factor of a ``scale`` node, which
``fit cosets`` writes, must be two finite numbers.

The boundary works on integers where it can.  ``parse_frac`` reads the
canonical "p/q" form (ASCII ``-?[0-9]+/[0-9]+``) with two ``int()`` calls and
leaves every other string to ``Fraction``; ``encode_scalar`` writes each
coordinate from the scalar's integer numerators and denominator, in lowest
terms, without building its ``Fraction`` coordinates.  ``decode_scalar``
reads a ``{"coords": [...]}`` leaf whose entries are all canonical straight
from their integers: one gcd per entry, the lcm of the denominators, zeros
up to the degree, and the trusted builder; any other leaf keeps the
``parse_frac`` and ``NumberField.element`` path and its errors.  ``dumps``
writes a scalar leaf, a dict that is exactly ``{"coords": [str, ...]}``, in
one append, and a dict object that appears again at the indentation of its
first occurrence by copying that occurrence's text; ``fit cosets`` shares
each candidate's document between the slices (``encode_function``'s
``shared``), so each candidate is encoded once and written once.
``decode_field`` keeps one ``NumberField`` per declaration in this
process (``_FIELDS``, keyed by the parsed minimal polynomial and interval,
cleared at ``_FIELDS_CAP`` entries), so every document that declares a field
shares its refined root enclosure and float memo; a float still depends on
the value and the declaration only (see the ``scalar`` module), so what a
call prints does not depend on the calls before it.  The library's own
``make_field``, ``rational_field`` and ``NumberField(...)`` still build new
objects.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from math import gcd, lcm

from .construct import (
    AntiDifference,
    CosetBuild,
    EvaluableFunction,
    ExpPolyLeaf,
    Project,
    Scale,
    Sum,
    TriangleWave,
    make_antidifference,
)
from .errors import FrameInvalid, MalformedInput
from .expcoef import ExpCoefficient, _add_term
from .exppoly import ExpPolynomial
from .groups import GroupClosure, HyperplaneFrame, frame_on_hyperplane, group_closure
from .opalg import TranslationPolynomial
from .scalar import AlgebraicScalar, ComplexAlgebraic, NumberField, _make
from .subspace import FunctionSubspace

SCHEMA_VERSION = "1"
# the deepest function tree decode_function reads: above the deepest one the
# library writes (a prop7 phi over a tower of order MAX_TOWER_ORDER), below
# the depth at which the recursion would run out of stack
MAX_FUNCTION_DEPTH = 512
# the fields decode_field has built, by parsed declaration; cleared when full
_FIELDS: dict = {}
_FIELDS_CAP = 64


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_frac(s) -> Fraction:
    """The rational ``s``: a string ``Fraction`` reads ("p/q" or a decimal),
    a JSON integer, or an integral finite number such as 2.0.  A finite
    number with a fraction part was already rounded to binary by the JSON
    reader, so it raises MalformedInput naming it, as a bool, a non-finite
    number or anything else does.  A string of the canonical form, ASCII
    ``-?[0-9]+/[0-9]+``, is read by two ``int()`` calls, any other one by
    ``Fraction``; both raise the same error on a zero denominator or a
    numeral past ``int``'s digit limit."""
    pq = None
    if type(s) is str:
        pq = _canonical_ints(s)
    elif isinstance(s, float) and math.isfinite(s) and not s.is_integer():
        raise MalformedInput(f"float scalar {s!r} is not exact; pass 'p/q' strings")
    elif not isinstance(s, (str, int, float)) or isinstance(s, bool):
        raise MalformedInput(f"bad rational {json.dumps(s)}")
    try:
        return Fraction(*pq) if pq is not None else Fraction(s)
    except (ValueError, OverflowError, ZeroDivisionError) as e:
        raise MalformedInput(f"bad rational {s!r}") from e


def _canonical_ints(s: str):
    """The integers (p, q) of a string of the canonical form ASCII
    ``-?[0-9]+/[0-9]+`` (q may be 0), or None for any other string and for
    a numeral past ``int``'s digit limit."""
    p, _, q = s.partition("/")
    n = p[1:] if p[:1] == "-" else p
    if not (q.isascii() and q.isdigit() and n.isascii() and n.isdigit()):
        return None
    try:
        return int(p), int(q)
    except ValueError:
        return None


def parse_int(obj, what: str) -> int:
    """The integer ``obj``: a JSON integer, an integral finite number, or a
    string ``int()`` reads.  Anything else (a fraction, a non-finite number,
    a bool, null, a container) raises MalformedInput naming ``what``."""
    readable = (isinstance(obj, (int, str)) and not isinstance(obj, bool)
                or isinstance(obj, float) and obj.is_integer())
    if readable:
        try:
            return int(obj)
        except ValueError:   # a string int() does not read
            pass
    raise MalformedInput(f"{what} must be an integer, got {json.dumps(obj)}")


def encode_field(field: NumberField) -> dict:
    return {"minpoly": [frac_str(c) for c in field.minpoly],
            "interval": [frac_str(field._init_interval[0]),
                         frac_str(field._init_interval[1])]}


def decode_field(obj) -> NumberField:
    """The field the document ``obj`` declares: one object per declaration
    and process, kept in ``_FIELDS`` under the parsed (minpoly, interval),
    the key ``NumberField`` equality reads.  Only fields that were built are
    kept, so a declaration that raises raises on every call."""
    try:
        minpoly, interval = obj["minpoly"], obj["interval"]
        if not (isinstance(minpoly, list) and isinstance(interval, list) and len(interval) == 2):
            raise TypeError("not lists")
        key = (tuple(parse_frac(c) for c in minpoly),
               (parse_frac(interval[0]), parse_frac(interval[1])))
    except (KeyError, TypeError) as e:
        raise MalformedInput("field document needs a 'minpoly' list and an 'interval' "
                             "list of two rationals") from e
    field = _FIELDS.get(key)
    if field is None:
        field = NumberField(*key)
        if len(_FIELDS) >= _FIELDS_CAP:
            _FIELDS.clear()
        _FIELDS[key] = field
    return field


def encode_scalar(x: AlgebraicScalar) -> dict:
    """``{"coords": [...]}``, each coordinate "p/q" in lowest terms, written
    from the integer numerators and common denominator of ``x``."""
    den = x.den
    if den == 1:
        return {"coords": [f"{a}/1" for a in x.num]}
    coords = []
    for a in x.num:
        g = gcd(a, den)
        coords.append(f"{a // g}/{den // g}")
    return {"coords": coords}


def decode_scalar(field: NumberField, obj) -> AlgebraicScalar:
    """A ``{"coords": [...]}`` dict over the power basis, else one rational.
    A leaf of at most ``field.degree`` canonical "p/q" strings is read on
    integers (``_canonical_scalar``); any other leaf goes through
    ``parse_frac`` and ``NumberField.element``, and their errors."""
    if isinstance(obj, dict):
        x = _canonical_scalar(field, obj.get("coords"))
        if x is not None:
            return x
        try:
            return field.element([parse_frac(c) for c in obj["coords"]])
        except (KeyError, TypeError) as e:
            raise MalformedInput(f"bad scalar {obj!r}") from e
    if isinstance(obj, bool):   # an int to isinstance, but not a number in JSON
        raise MalformedInput(f"bad scalar {json.dumps(obj)}")
    return field.rational(parse_frac(obj))


def _canonical_scalar(field: NumberField, coords):
    """The scalar of the coordinate list ``coords`` when it holds at most
    ``field.degree`` strings of the canonical form ``-?[0-9]+/[0-9]+`` with
    nonzero denominators, else None.  Each entry is reduced by one gcd, the
    numerators are put over the lcm of the denominators, which leaves
    gcd(den, *num) = 1, and padded with zeros to the degree; the trusted
    builder takes them as they are.  No ``Fraction`` is built."""
    if type(coords) is not list or len(coords) > field.degree:
        return None
    nums, dens = [], []
    for c in coords:
        pq = _canonical_ints(c) if type(c) is str else None
        if pq is None or not pq[1]:
            return None
        a, b = pq
        g = gcd(a, b)
        nums.append(a // g)
        dens.append(b // g)
    den = lcm(*dens)
    if den != 1:
        nums = [a * (den // b) for a, b in zip(nums, dens)]
    return _make(field, tuple(nums) + (0,) * (field.degree - len(nums)), den)


def encode_complex(z: ComplexAlgebraic) -> list:
    return [encode_scalar(z.re), encode_scalar(z.im)]


def decode_complex(field: NumberField, obj) -> ComplexAlgebraic:
    """A two-entry list is (re, im); anything else is a real value read by
    ``decode_scalar``."""
    if isinstance(obj, list) and len(obj) == 2:
        return ComplexAlgebraic(decode_scalar(field, obj[0]),
                                decode_scalar(field, obj[1]))
    return ComplexAlgebraic(decode_scalar(field, obj))


def encode_vector(v) -> list:
    return [encode_scalar(x) for x in v]


def decode_vector(field: NumberField, obj) -> tuple:
    if not isinstance(obj, list):
        raise MalformedInput(f"bad vector {obj!r}")
    return tuple(decode_scalar(field, x) for x in obj)


def decode_vectors(field: NumberField, obj, what: str) -> list:
    """The vectors of the JSON list ``obj``; an entry that is not a list is
    read as a bare scalar, a 1-vector.  ``what`` names the argument in the
    error raised when ``obj`` is not a list."""
    if not isinstance(obj, list):
        raise MalformedInput(f"{what} must be a JSON list, got {json.dumps(obj)}")
    return [decode_vector(field, v if isinstance(v, list) else [v]) for v in obj]


def encode_expcoef(c: ExpCoefficient) -> dict:
    out = {"terms": [{"mu": encode_complex(mu), "c": encode_complex(v)}
                     for mu, v in c.terms_sorted()]}
    if not c.has_unit_den:
        out["den"] = [{"mu": encode_complex(mu), "c": encode_complex(v)}
                      for mu, v in c.den_terms_sorted()]
    return out


def decode_expcoef(field: NumberField, obj) -> ExpCoefficient:
    if not isinstance(obj, dict):
        return ExpCoefficient.scalar(field, parse_frac(obj))
    try:
        num = {}
        for t in obj["terms"]:
            _add_term(num, decode_complex(field, t["mu"]), decode_complex(field, t["c"]))
        den = None
        if "den" in obj:
            den = {}
            for t in obj["den"]:
                _add_term(den, decode_complex(field, t["mu"]), decode_complex(field, t["c"]))
        return ExpCoefficient(field, num, den)
    except (KeyError, TypeError, ZeroDivisionError) as e:
        raise MalformedInput(f"bad exponential coefficient {obj!r}") from e


def encode_exppoly(f: ExpPolynomial) -> dict:
    terms = []
    for freq in f.frequencies():
        poly = f.terms[freq]
        entry = {"lambda": [encode_complex(z) for z in freq],
                 "poly": [{"alpha": list(alpha), "coeff": encode_expcoef(c)}
                          for alpha, c in sorted(poly.items(),
                                                 key=lambda kv: (sum(kv[0]), kv[0]))]}
        terms.append(entry)
    return {"dim": f.dim, "terms": terms}


def decode_exppoly(field: NumberField, obj) -> ExpPolynomial:
    """The polynomial of ``obj``: its monomials summed in document order by
    ``ExpPolynomial.from_monomials``."""
    try:
        dim = parse_int(obj["dim"], "dim")

        def monomials():
            for entry in obj["terms"]:
                freq = tuple(decode_complex(field, z) for z in entry["lambda"])
                for mono in entry["poly"]:
                    alpha = tuple(parse_int(a, "alpha entry") for a in mono["alpha"])
                    yield alpha, decode_expcoef(field, mono["coeff"]), freq

        return ExpPolynomial.from_monomials(field, dim, monomials())
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput(f"bad exponential polynomial: {e}") from e


def encode_op(T: TranslationPolynomial) -> dict:
    return {"dim": T.dim,
            "terms": [{"shift": encode_vector(y), "coeff": encode_expcoef(T.terms[y])}
                      for y in T.shifts_sorted()]}


def decode_op(field: NumberField, obj) -> TranslationPolynomial:
    try:
        dim = parse_int(obj["dim"], "operator dim")
        terms = {}
        for t in obj["terms"]:
            shift = decode_vector(field, t["shift"])
            if len(shift) != dim:
                raise MalformedInput(f"operator shift {t['shift']!r} has length "
                                     f"{len(shift)}, not dim = {dim}")
            _add_term(terms, shift, decode_expcoef(field, t["coeff"]))
        return TranslationPolynomial(field, dim, terms)
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput(f"bad translation operator: {e}") from e


def encode_space(V: FunctionSubspace) -> dict:
    return {"dim": V.dim_ambient,
            "basis": [encode_exppoly(b) for b in V.basis_polynomials()]}


def decode_space(field: NumberField, obj) -> FunctionSubspace:
    try:
        dim = parse_int(obj["dim"], "space dim")
        basis = [decode_exppoly(field, b) for b in obj["basis"]]
        return FunctionSubspace.span(basis, dim=dim, field=field)
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput(f"bad subspace document: {e}") from e


def encode_closure(c: GroupClosure) -> dict:
    return {"dense": c.dense,
            "generators": [encode_vector(g) for g in c.generators],
            "V": [encode_vector(v) for v in c.v_basis],
            "Lambda": [encode_vector(l) for l in c.lambda_basis]}


def decode_closure(field: NumberField, obj, known: GroupClosure | None = None
                   ) -> GroupClosure:
    """The closure of the document's generators.  ``known``, a closure
    already computed, is returned instead when its generators equal the
    decoded ones exactly: the closure is a function of the generators."""
    try:
        gens = [decode_vector(field, g) for g in obj["generators"]]
    except (KeyError, TypeError) as e:
        raise MalformedInput("closure document needs 'generators'") from e
    if known is not None and gens == known.generators:
        return known
    return group_closure(gens, field=field)


def encode_frame(fr: HyperplaneFrame) -> dict:
    return {"vt": [encode_vector(v) for v in fr.vt_basis],
            "w": encode_vector(fr.w),
            "r": encode_scalar(fr.r),
            "p": list(fr.p),
            "closure": encode_closure(fr.closure)}


def decode_frame(field: NumberField, obj) -> HyperplaneFrame:
    """The frame that ``frame_on_hyperplane`` builds from the document's
    closure and hyperplane rows; a document whose w, r or p differ from that
    frame's raises FrameInvalid."""
    try:
        closure = decode_closure(field, obj["closure"])
        vt = [decode_vector(field, v) for v in obj["vt"]]
        w = decode_vector(field, obj["w"])
        r = decode_scalar(field, obj["r"])
        p = [parse_int(x, "frame p entry") for x in obj["p"]]
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput(f"bad frame document: {e}") from e
    frame = frame_on_hyperplane(closure, vt)
    if (w, r, p) != (frame.w, frame.r, frame.p):
        raise FrameInvalid("frame w, r or p differ from those of its closure and hyperplane")
    return frame


def encode_function(f: EvaluableFunction, *, shared: dict | None = None) -> dict:
    """The document of the function tree ``f``.  ``shared`` holds the
    document of every node already encoded, by identity; a caller that
    passes one dict to several calls has a node that several trees share
    encoded once, and each tree holds the one document object (which
    ``dumps`` then writes once and copies)."""
    shared = {} if shared is None else shared
    hit = shared.get(id(f))
    if hit is None:
        # the node is kept alive with its document, so its id stays unique
        hit = shared[id(f)] = (f, _encode_node(f, shared))
    return hit[1]


def _encode_node(f: EvaluableFunction, shared: dict) -> dict:
    if isinstance(f, ExpPolyLeaf):
        return {"kind": "exppoly", "poly": encode_exppoly(f.poly)}
    if isinstance(f, TriangleWave):
        return {"kind": "triangle_wave", "period": encode_scalar(f.period)}
    if isinstance(f, AntiDifference):
        return {"kind": "antidifference", "step": encode_scalar(f.step),
                "child": encode_function(f.child, shared=shared)}
    if isinstance(f, Sum):
        return {"kind": "sum",
                "children": [encode_function(c, shared=shared) for c in f.children]}
    if isinstance(f, Scale):
        if isinstance(f.factor, AlgebraicScalar):
            factor = {"scalar": encode_scalar(f.factor)}
        else:
            z = complex(f.factor)
            factor = {"complex": [z.real, z.imag]}
        return {"kind": "scale", "factor": factor,
                "child": encode_function(f.child, shared=shared)}
    if isinstance(f, Project):
        return {"kind": "project",
                "matrix": [encode_vector(row) for row in f.matrix],
                "child": encode_function(f.child, shared=shared)}
    if isinstance(f, CosetBuild):
        return {"kind": "coset", "frame": encode_frame(f.frame),
                "outer": encode_exppoly(f.outer),
                "inner": encode_function(f.inner, shared=shared)}
    raise MalformedInput(f"cannot encode function node {type(f).__name__}")


def decode_function(field: NumberField, obj) -> EvaluableFunction:
    """The function tree ``obj``; a tree more than ``MAX_FUNCTION_DEPTH``
    levels deep raises MalformedInput.  Each antidifference node is built by
    ``make_antidifference``, so a child that does not vanish on its step
    lattice raises ``LatticeValuesNonzero``."""
    return _decode_node(field, obj, 1)


def _float_factor(pair) -> complex:
    """The float ``Scale`` factor [re, im]: two finite JSON numbers; a bool,
    NaN, Infinity or anything else raises MalformedInput naming it."""
    if isinstance(pair, list) and len(pair) == 2 and all(type(x) in (int, float) for x in pair):
        try:
            z = complex(*pair)
        except OverflowError:   # an integer beyond the float range
            z = complex(math.inf)
        if cmath.isfinite(z):
            return z
    raise MalformedInput(f"scale factor {json.dumps(pair)} is not two finite numbers")


def _decode_node(field: NumberField, obj, depth: int) -> EvaluableFunction:
    if depth > MAX_FUNCTION_DEPTH:
        raise MalformedInput(f"function tree is deeper than {MAX_FUNCTION_DEPTH} levels")
    try:
        kind = obj["kind"]
        if kind == "exppoly":
            return ExpPolyLeaf(decode_exppoly(field, obj["poly"]))
        if kind == "triangle_wave":
            return TriangleWave(decode_scalar(field, obj["period"]))
        if kind == "antidifference":
            return make_antidifference(_decode_node(field, obj["child"], depth + 1),
                                       decode_scalar(field, obj["step"]))
        if kind == "sum":
            return Sum([_decode_node(field, c, depth + 1) for c in obj["children"]])
        if kind == "scale":
            fobj = obj["factor"]
            if "scalar" in fobj:
                factor = decode_scalar(field, fobj["scalar"])
            else:
                factor = _float_factor(fobj["complex"])
            return Scale(factor, _decode_node(field, obj["child"], depth + 1))
        if kind == "project":
            matrix = [decode_vector(field, row) for row in obj["matrix"]]
            return Project(_decode_node(field, obj["child"], depth + 1), matrix)
        if kind == "coset":
            frame = decode_frame(field, obj["frame"])
            outer = decode_exppoly(field, obj["outer"])
            inner = _decode_node(field, obj["inner"], depth + 1)
            return CosetBuild(frame, outer, inner)
        raise MalformedInput(f"unknown function node kind {kind!r}")
    except (KeyError, TypeError) as e:
        raise MalformedInput(f"bad function document: {e}") from e


def manifest(field: NumberField, objects: dict, certificates: dict | None = None) -> dict:
    doc = {"version": SCHEMA_VERSION, "field": encode_field(field),
           "objects": objects}
    if certificates is not None:
        doc["certificates"] = certificates
    return doc


_encode_str = json.encoder.encode_basestring_ascii


def dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)``
    byte for byte, written by one recursive pass instead of the generator
    chain that ``json`` falls back to whenever it indents.  A dict that
    appears again at the indentation of its first occurrence is written by
    copying the text of that occurrence: ``_write`` keeps where each dict's
    text lies in ``out``, by object identity, for this one call (``doc``
    keeps every dict alive, so no id is reused)."""
    out: list = []
    _write(doc, "\n", out, {})
    return "".join(out)


def _float_str(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_str(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float_str(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(o, nl: str, out: list, seen: dict) -> None:
    """Append the text of ``o`` to ``out``, ``nl`` being the newline and
    indent of the line ``o`` starts on; the checks run in ``json``'s order.
    ``seen`` maps the id of each dict written so far, scalar leaves aside,
    to its first indentation and the span of ``out`` that holds its text
    (the joined text, once it is copied)."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_str(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + " "
        out.append("[")
        for i, v in enumerate(o):
            out.append("," + inner if i else inner)
            _write(v, inner, out, seen)
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + " "
        coords = o.get("coords") if len(o) == 1 else None
        if type(coords) is list and coords and all(type(c) is str for c in coords):
            # a scalar leaf {"coords": [str, ...]}, written in one append
            leaf = inner + " "
            out.append("{" + inner + '"coords": [' + leaf
                       + ("," + leaf).join(map(_encode_str, coords))
                       + inner + "]" + nl + "}")
            return
        first = seen.get(id(o))
        if first is not None and first[0] == nl:
            # written before at this indentation: copy that text
            text = first[1]
            if type(text) is not str:
                text = "".join(out[text:first[2]])
                seen[id(o)] = (nl, text, None)
            out.append(text)
            return
        start = len(out)
        out.append("{")
        for i, (k, v) in enumerate(sorted(o.items())):
            out.append(("," + inner if i else inner) + _encode_str(_key_str(k)) + ": ")
            _write(v, inner, out, seen)
        out.append(nl + "}")
        if first is None:
            seen[id(o)] = (nl, start, len(out))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
