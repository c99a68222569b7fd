"""Every tolerance of the solver, each named once, with the decision it makes.

The clearing model works in model units (``model.build_model``): prices
divided by the smallest power of two that brings the book's largest
|price| to at most 128, quantities by the one that brings its largest
|quantity| to at most 64, and money by their product.  The QPs, FixFlow,
pricing and the master read their absolute tolerances in those units, so
each means the same thing at any magnitude of the book.  ``CHECK_TOL`` is
the checkers' default, in the document's own units, as ``--tol`` is.
"""

# primal feasibility: a row or bound holds, or is tight, within it; a
# constraint whose normal has no larger part (relative) in the working
# rows' null space is implied by them; a price in a book is in its interval
# within it, and the model's presolve fixings read a curve's quantities
# within it
FEAS_TOL = 1e-9
# multiplier sign: a multiplier below -DUAL_TOL has the wrong sign, one
# above DUAL_TOL is positive, and a null-space gradient above it ascends
DUAL_TOL = 1e-9
# step: a Newton step shorter than STEP_TOL times max(1, |x|) is zero
STEP_TOL = 1e-11
# curvature: a reduced-Hessian eigenvalue below -CURV_TOL times max(1, the
# largest |eigenvalue|) curves; the others are flat
CURV_TOL = 1e-10
# rank: a singular value above RANK_TOL times (the largest one times the
# larger dimension, plus 1) counts toward the rank
RANK_TOL = 1e-11
# infeasibility proof: a phase-1 weight, a row's excess over the box or a
# crossing of pricing's fill bounds above it proves infeasibility
INFEAS_TOL = 1e-7
# tight sets: pricing holds a flow row or a fill within it of its bound
# tight, and the flow-price checker at least as loosely
TIGHT_TOL = 1e-7
# relative round-off: values within ROUND_TOL times max(1, |value|) are
# equal: a parametric pass's end and its pinned columns, a binary at 0 or 1,
# the most fractional binaries, and a quadratic term's sign
ROUND_TOL = 1e-12
# rate: a constraint moves toward its limit along a step, or a multiplier
# falls, only above RATE_TOL per unit of the step
RATE_TOL = 1e-12
# ties: step lengths within TIE_TOL tie, and a component of a parametric
# step below TIE_TOL times its largest is round-off
TIE_TOL = 1e-14
# money round-off: a bid loses (loss sets, the model's presolve fixings), or
# would profit, only beyond MONEY_TOL, and the least total loss that pricing
# keeps may grow by it
MONEY_TOL = 1e-9
# checker tolerance: the default ``--tol`` of ``daclear verify`` and of the
# solution checkers; a fill within it of full or empty is full or empty in
# the curtailment check, and a leaf meets a cut row within it
CHECK_TOL = 1e-6
# default gap: a leaf beats the nodes whose bound exceeds its objective by at
# most DEFAULT_GAP (``--abs-gap``, in the book's units of money)
DEFAULT_GAP = 1e-9
# input magnitude: every number of a parsed document is at most this in
# magnitude; normalizing by the book's largest number does not help when
# one number in it lies far from the rest
MAX_MAGNITUDE = 1e6
