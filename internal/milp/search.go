// Best-first branch and bound.
//
// One loop pops the frontier node with the smallest LP bound, solves its
// relaxation on a reusable simplex state, and folds the outcome — children,
// an accepted or heuristic candidate, a limit flag — back into the search.
//
// Which optimum the search returns is fixed by the branch TREE, not by the
// order nodes are visited. Each node's LP relaxation and branching variable
// depend only on the node's bounds, so every node has a fixed sequence rank
// (bbNode.seq). What varies with the warm-start cutoff and the rounding
// heuristic is which tree nodes get visited before pruning kicks in; the
// incumbent rule makes the outcome independent of that:
//
//   - a candidate replaces the incumbent if its objective is strictly
//     better; on ties, LP-verified ("accepted") candidates beat rounding-
//     heuristic ones, and among equals the smaller seq wins;
//   - a node is pruned when its strengthened bound is strictly worse than
//     the incumbent; a TIED node is pruned only against an accepted
//     incumbent with smaller seq, never against a heuristic one.
//
// Let W be the accepted candidate with the minimum (objective, seq) over
// the whole tree. No ancestor a of W is ever pruned: a's strengthened bound
// is at most W's objective (its subtree contains W, and with an integral
// objective the strengthening stays below the attainable optimum), so a
// could only be tie-pruned by an accepted incumbent with seq smaller than
// a.seq <= W.seq — but then that incumbent, not W, would be the minimum.
// Hence W is always discovered and, being the minimum of the replacement
// order, always wins: a cold solve, a warm-started one and one seeded by a
// heuristic incumbent all return W. When several card-minimal repairs tie,
// this rule is what picks the one DART reports. (Searches cut short by
// MaxNodes or an LP iteration limit report StatusIterLimit; with an exactly
// non-integral objective two distinct optima within the LP tolerance can
// tie unreproducibly — DART's cardinality objectives are integral, so the
// repair path always gets the exact case.)
package milp

import (
	"container/heap"
	"math"
)

// bbIncumbent is the best feasible integral solution found so far.
// accepted distinguishes LP-verified candidates from rounding-heuristic
// ones; see the package comment for how the flag steers tie-breaking.
type bbIncumbent struct {
	ok       bool
	accepted bool
	obj      float64
	seq      string
	x        []float64
}

// bbSearch is one branch-and-bound search: the model and resolved options,
// the best-first frontier and incumbent, work counters, and the node
// solver's scratch. The scratch is allocated once per search, so
// steady-state node expansion allocates nothing beyond the two child nodes
// (pool-recycled) and their seq strings.
type bbSearch struct {
	m        *Model
	cs       *csrMatrix
	opt      MILPOptions
	integral bool
	cutoff   float64
	rootLB   []float64
	rootUB   []float64

	frontier  nodeQueue
	inc       bbIncumbent
	nodes     int
	iters     int
	hitLimit  bool // MaxNodes exhausted or an LP hit its iteration limit
	unbounded bool // root relaxation unbounded

	s     *simplex
	lb    []float64 // materialized bounds of the current node
	ub    []float64
	x     []float64 // LP solution of the current node
	cand  []float64 // rounded-candidate scratch
	chain []*bbNode // parent-chain scratch for materialize

	prog *bbSearchProgress // live telemetry; nil unless the trace is bus-bound
}

// strengthen rounds a subtree's LP bound up to the next attainable
// objective value when the objective is provably integral.
func (b *bbSearch) strengthen(bound float64) float64 {
	if b.integral {
		return math.Ceil(bound - 1e-6)
	}
	return bound
}

// run drains the frontier. opt.Cancel is polled once per dequeue, so
// cancellation is honored at node granularity. An unbounded root pushes no
// children, so it ends the loop too.
func (b *bbSearch) run() (*MILPResult, error) {
	for len(b.frontier) > 0 {
		if b.opt.Cancel != nil {
			if err := b.opt.Cancel(); err != nil {
				return nil, err
			}
		}
		if b.nodes >= b.opt.MaxNodes {
			b.hitLimit = true
			break
		}
		n := heap.Pop(&b.frontier).(*bbNode)
		if b.pruned(n.bound, n.seq) {
			releaseNode(n) // pruned before expansion: nobody references it
			continue
		}
		b.nodes++
		if err := b.expand(n); err != nil {
			return nil, err
		}
	}
	return b.result(), nil
}

// materialize reconstructs node's effective bounds into b.lb/b.ub by
// replaying branch deltas root-to-leaf (deeper deltas tighten shallower
// ones).
func (b *bbSearch) materialize(node *bbNode) {
	copy(b.lb, b.rootLB)
	copy(b.ub, b.rootUB)
	b.chain = b.chain[:0]
	for n := node; n.parent != nil; n = n.parent {
		b.chain = append(b.chain, n)
	}
	for i := len(b.chain) - 1; i >= 0; i-- {
		n := b.chain[i]
		if n.branchUB {
			b.ub[n.branchVar] = n.branchVal
		} else {
			b.lb[n.branchVar] = n.branchVal
		}
	}
}

// expand solves one node's LP relaxation and folds the outcome into the
// search: offer candidates to the incumbent, push surviving children, and
// recycle the node when nothing references it any more.
func (b *bbSearch) expand(node *bbNode) error {
	b.materialize(node)
	b.s.reset(b.m, b.cs, b.opt.Simplex, b.lb, b.ub)
	st, err := b.s.run()
	b.iters += b.s.iters
	if err != nil {
		return err
	}
	var down, up *bbNode
	improved := false
	switch st {
	case StatusUnbounded:
		// Unbounded below a bounded root cannot happen; at the root it
		// decides the whole solve. Deeper nodes die defensively.
		if node.depth == 0 {
			b.unbounded = true
			return nil
		}
	case StatusIterLimit:
		b.hitLimit = true
	case StatusOptimal:
		down, up, improved = b.branch(node)
	}
	childKept := false
	for _, child := range [2]*bbNode{down, up} {
		if child == nil {
			continue
		}
		if b.pruned(child.bound, child.seq) {
			releaseNode(child)
			continue
		}
		heap.Push(&b.frontier, child)
		childKept = true
	}
	if !childKept {
		// No child holds a parent reference (a pruned child was released,
		// dropping its own), so the node can be pooled.
		releaseNode(node)
	}
	if b.prog != nil {
		switch {
		case improved:
			b.publishProgress("incumbent")
		case b.nodes-b.prog.lastNodes >= bbProgressEvery:
			b.publishProgress("progress")
		}
	}
	return nil
}

// branch handles a node whose relaxation solved to optimality: an integral
// solution becomes a candidate; otherwise the rounding heuristic may run
// (at the root) and the most fractional variable is split into down and up
// children, a child whose tightened bound empties the variable's domain
// being dropped outright. It reports whether the incumbent improved.
func (b *bbSearch) branch(node *bbNode) (down, up *bbNode, improved bool) {
	obj := b.s.objective()
	b.s.fillSolution(b.x)

	frac := mostFractional(b.m, b.x, b.opt.IntTol)
	if frac < 0 {
		// Integral within tolerance. Guard against the big-M pathology:
		// an indicator variable can sit at |y|/M below the tolerance,
		// making the rounded point infeasible. Commit the candidate only
		// when its rounding verifies; otherwise branch on the largest
		// sub-tolerance deviation (an exact split: its floor and ceil
		// differ, so both children genuinely restrict the variable).
		roundIntegersInto(b.cand, b.m, b.x, b.opt.IntTol)
		if CheckFeasible(b.m, b.cand, b.opt.IntTol*10) == nil {
			cobj := candidateObjective(b.m, b.cand, obj, b.integral)
			if b.better(cobj, true, node.seq) {
				// Copy out of the scratch, reusing the previous incumbent's
				// array when one exists.
				b.commit(bbIncumbent{ok: true, accepted: true, obj: cobj, seq: node.seq, x: append(b.inc.x[:0], b.cand...)})
				improved = true
			}
			return nil, nil, improved
		}
		frac = mostFractional(b.m, b.x, 1e-15)
		if frac < 0 {
			// Exactly integral yet rounding-infeasible cannot happen;
			// treat defensively as a numerical dead end.
			return nil, nil, false
		}
	}

	if node.depth == 0 && !b.opt.DisableRounding {
		if hobj, hx, ok := roundingHeuristic(b.m, b.opt, b.x, b.lb, b.ub); ok {
			hobj = candidateObjective(b.m, hx, hobj, b.integral)
			if b.better(hobj, false, node.seq) {
				b.commit(bbIncumbent{ok: true, obj: hobj, seq: node.seq, x: hx})
				improved = true
			}
		}
	}

	xv := b.x[frac]
	if v := math.Floor(xv); v >= b.lb[frac]-1e-12 {
		down = newNode(node, frac, v, true, obj, node.seq+"0")
	}
	if v := math.Ceil(xv); v <= b.ub[frac]+1e-12 {
		up = newNode(node, frac, v, false, obj, node.seq+"1")
	}
	return down, up, improved
}

// commit installs a new incumbent and records it on the solve's span.
func (b *bbSearch) commit(inc bbIncumbent) {
	b.inc = inc
	b.opt.Trace.EventFloat("incumbent", "objective", inc.obj)
}

// pruned reports whether a subtree with LP bound bound and sequence rank
// seq can be discarded. Strictly worse strengthened bounds always prune
// (against the incumbent and the warm-start cutoff). A TIED bound prunes
// only against an accepted incumbent with a smaller rank: pruning a tied
// node with a smaller rank could hide the winner the tie rule picks, and
// heuristic incumbents never tie-prune because the accepted solution they
// would suppress is exactly the one the tie rule must find.
func (b *bbSearch) pruned(bound float64, seq string) bool {
	sb := b.strengthen(bound)
	if sb >= b.cutoff-1e-9 {
		return true
	}
	if !b.inc.ok {
		return false
	}
	if sb > b.inc.obj+1e-9 {
		return true
	}
	if sb < b.inc.obj-1e-9 {
		return false
	}
	return b.inc.accepted && seq > b.inc.seq
}

// better reports whether a candidate (obj, accepted, seq) replaces the
// current incumbent: strictly better objective wins; on ties an accepted
// candidate beats a heuristic one, and among equals the smaller sequence
// rank wins. The rule is a total order, so the final incumbent is the
// minimum over every candidate ever found — independent of the order the
// search found them in.
func (b *bbSearch) better(obj float64, accepted bool, seq string) bool {
	if !b.inc.ok {
		return true
	}
	if obj < b.inc.obj-1e-9 {
		return true
	}
	if obj > b.inc.obj+1e-9 {
		return false
	}
	if accepted != b.inc.accepted {
		return accepted
	}
	return seq < b.inc.seq
}

// result assembles the MILPResult of a finished search.
func (b *bbSearch) result() *MILPResult {
	res := &MILPResult{Nodes: b.nodes, Iterations: b.iters}
	if b.unbounded {
		res.Status = StatusUnbounded
		return res
	}
	res.Status = StatusInfeasible
	if b.hitLimit {
		res.Status = StatusIterLimit
	}
	if b.inc.ok {
		if !b.hitLimit {
			res.Status = StatusOptimal
		}
		res.Objective = b.inc.obj
		res.X = append([]float64(nil), b.inc.x...)
	}
	return res
}
