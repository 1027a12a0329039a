#!/usr/bin/env python3
"""Build the hyperplane counterexample in d = 2 and d = 3 and print its
certificate triple: exact invariance of the absorbing space H, exact
membership of the differenced function in H, and the corner that rules out
smoothness, read off the frame.  The triple is the one ``construct prop7``
prints, from the same function, ``construct.certify_counterexample``.

Run:  python scripts/counterexample_demo.py

Exits 1 when any certificate fails: an invariance or membership verdict of
False, or no corner.
"""

from deltaclose import (
    ExpPolynomial,
    build_frame,
    calg,
    group_closure,
    make_counterexample,
    make_field,
)
from deltaclose.construct import certify_counterexample


def run(dim: int, m: int) -> bool:
    """Print the certificate triple; True when all three hold."""
    F = make_field([-2, 0, 1], (1, 2))
    th = F.gen()
    pad = tuple(F.zero() for _ in range(dim - 2))
    gens = [(F.one(), F.zero()) + pad, (th, F.zero()) + pad,
            (F.zero(), F.one()) + pad]
    closure = group_closure(gens, field=F)
    frame = build_frame(closure)
    freq = (calg(F, 1),) + tuple(calg(F, 0) for _ in range(dim - 1))
    outer = ExpPolynomial.exponential(F, dim, freq)
    phi, H = make_counterexample(frame, outer, m)

    print(f"--- dimension {dim}, difference order {m} ---")
    print(f"closure: V dim {len(closure.v_basis)}, lattice rank "
          f"{len(closure.lambda_basis)}, levels p = {frame.p}")
    print(f"H dimension: {H.dim}")
    invariant, member_ok, witness = certify_counterexample(phi, H, m)
    print(f"H invariance under every generator (exact): {invariant}")
    print(f"m-th differences along every generator lie in H (exact): {member_ok}")

    if witness is None:
        print("no corner found (unexpected)")
    else:
        pt = ", ".join(f"{x:+.6f}" for x in witness.point)
        print(f"corner witness: point ({pt}), slope gap {witness.gap:.6f}")
    print()
    return invariant and member_ok and witness is not None


if __name__ == "__main__":
    results = [run(2, 1), run(2, 2), run(3, 1)]
    raise SystemExit(0 if all(results) else 1)
