"""Alternating branching: two players with conflicting interests.

Three instances, one per composite monad:

* games           -- the protagonist picks a set from an up-closed family,
                     the opponent picks a state inside it; healthiness is
                     plain monotonicity;
* divergence +    -- Dijkstra-style: a nonempty set of successors or
  nondeterminism     bottom; healthiness is strictness + nonempty meets;
* demonic choice  -- a polytope of distributions per state; healthiness is
  over probability   regular-sublinearity, and synthesis rebuilds the
                     polytope from half-spaces cut out by the probe grid.
"""

from fractions import Fraction as F

from wpbench import (
    BOT,
    DistV,
    FinSet,
    KleisliArrow,
    ProbeGrid,
    check_monotone,
    check_regular_sublinear,
    check_strict_nonempty_meets,
    pt_alternating,
    roundtrip_verify,
    synth_polytope,
    up_closure,
)

X = FinSet("X", ["x"])
Y = FinSet("Y", ["y0", "y1"])

print("== games ==")
family = up_closure([frozenset({"y0", "y1"})], Y)
game = KleisliArrow("up_powerset", X, Y, {"x": family})
phi = pt_alternating("game", game)
print("family at x:", sorted(map(sorted, game.row("x"))))
print("wp table:", phi.table, "(1 only when both y0 and y1 satisfy the postcondition)")
print("monotone:", check_monotone(phi).describe())
print("roundtrip:", roundtrip_verify(game, "game").describe())

print("\n== divergence + nondeterminism ==")
maybe_diverge = KleisliArrow("lift_powerset", X, Y, {"x": frozenset({BOT, "y0"})})
phi = pt_alternating("dijkstra", maybe_diverge)
row = maybe_diverge.row("x")
print("row with bottom mixed in:", [y for y in Y.elements + (BOT,) if y in row])
print("wp table:", phi.table, "(divergence falsifies everything)")
print("strict + meets:", check_strict_nonempty_meets(phi).describe())
rt = roundtrip_verify(maybe_diverge, "dijkstra")
print("roundtrip:", rt.describe())
print("  (the bottom-mixed row collapses to {BOT}; the transformer round trip is exact)")

print("\n== demonic choice over probability ==")
# the scheduler picks any mixture of the two vertices, then chance runs
polytope = KleisliArrow(
    "cv_dist",
    X,
    Y,
    {"x": (DistV({"y0": F(3, 4), "y1": F(1, 4)}), DistV({"y0": F(1, 4), "y1": F(3, 4)}))},
)
phi = pt_alternating("demonic_prob", polytope)
post = (F(1), F(0))
print("wp(reward y0)(x) =", phi.apply_values(post)[0], "(worst-case vertex)")
grid = ProbeGrid.default(Y, seed=0)
print("regular-sublinear:", check_regular_sublinear(phi, grid).describe())
result = synth_polytope(phi, grid)
print("reconstruction:", result.residual.describe())
vertices = tuple(tuple(mu.weight(y) for y in Y.elements) for mu in result.arrow.row("x"))
print("region vertices:", vertices)
print("feasible point:", vertices[0])
print("semantic roundtrip:", roundtrip_verify(polytope, "cv_sublinear", grid).describe())
