// Package dart is the public facade of the DART reproduction (Fazzinga,
// Flesca, Furfaro, Parisi: "DART: A Data Acquisition and Repairing Tool",
// EDBT 2006): robust acquisition of tabular data from heterogeneous
// documents, with detection and card-minimal repair of acquisition errors
// driven by steady aggregate constraints.
//
// The Pipeline type mirrors the paper's two macro-modules (Fig. 2):
//
//   - the acquisition and extraction module converts the input document to
//     HTML, extracts row pattern instances with the metadata-driven wrapper,
//     and generates a relational database instance;
//   - the repairing module grounds the steady aggregate constraints,
//     compiles the card-minimal repair problem into a mixed-integer linear
//     program (Section 5), solves it with the built-in MILP solver, and
//     drives the operator validation loop (Section 6.3).
//
// Quick start:
//
//	md, _ := dart.ParseMetadata(metadataText)
//	p := &dart.Pipeline{Metadata: md}
//	res, _ := p.Process(documentHTML)
//	fmt.Println(res.Repaired)
package dart

import (
	"context"
	"fmt"
	"time"

	"dart/internal/aggrcons"
	"dart/internal/convert"
	"dart/internal/core"
	"dart/internal/dbgen"
	"dart/internal/metadata"
	"dart/internal/obs"
	"dart/internal/relational"
	"dart/internal/repair"
	"dart/internal/validate"
	"dart/internal/wrapper"
)

// Re-exported types: the facade's vocabulary for building and inspecting
// pipelines without importing internal packages directly.
type (
	// Metadata is the acquisition designer's configuration.
	Metadata = metadata.Metadata
	// Database is a relational database instance.
	Database = relational.Database
	// Repair is a set of atomic value updates restoring consistency.
	Repair = core.Repair
	// Update is one atomic value update.
	Update = core.Update
	// Item addresses one database value.
	Item = core.Item
	// Solver computes repairs; see MILPSolver and friends in internal/core.
	Solver = core.Solver
	// Operator validates proposed updates.
	Operator = validate.Operator
	// OracleOperator is an operator that knows the ground truth.
	OracleOperator = validate.OracleOperator
	// InteractiveOperator prompts a human on an io stream pair.
	InteractiveOperator = validate.InteractiveOperator
	// Violation is one unsatisfied ground constraint.
	Violation = aggrcons.Violation
	// Instance is one extracted row pattern instance.
	Instance = wrapper.Instance
	// Skipped describes a document row no pattern matched.
	Skipped = wrapper.Skipped
	// RowError describes an instance the database generator dropped.
	RowError = dbgen.RowError
	// StringRepair records a wrapper-level correction of a non-numerical
	// string against its domain.
	StringRepair = wrapper.Correction
	// ValidationOutcome reports the finished operator loop.
	ValidationOutcome = validate.Outcome
	// Suggestion is one auditable repair record of a validation session.
	Suggestion = repair.Suggestion
	// Decider decides open suggestions round by round; Operator-based
	// review, journal replay, and the dartd workbench all implement it.
	Decider = repair.Decider
	// Ledger collects a session's suggestions and decision journal.
	Ledger = repair.Ledger
)

// ParseMetadata parses a designer metadata file.
func ParseMetadata(src string) (*Metadata, error) { return metadata.Parse(src) }

// NewMILPSolver returns the paper's repair solver: card-minimal repair via
// the S*(AC) mixed-integer program (reduced formulation).
func NewMILPSolver() Solver { return &core.MILPSolver{Formulation: core.FormulationReduced} }

// Pipeline wires the DART architecture for one document class.
type Pipeline struct {
	// Metadata configures extraction and repairing (required).
	Metadata *Metadata
	// Solver computes repairs (default: NewMILPSolver()).
	Solver Solver
	// Operator validates proposed repairs; nil accepts the first computed
	// repair without supervision (fully automatic mode) unless a Decider is
	// set.
	Operator Operator
	// Decider, when non-nil, drives the validation loop directly at the
	// suggestion-ledger level (journal replay, HTTP workbench); it takes
	// precedence over Operator.
	Decider Decider
	// Ledger, when non-nil, is adopted by the validation session instead of
	// a fresh one — the resume path for sessions restored from a journal.
	Ledger *Ledger
	// ReviewPerIteration restarts the repair computation after this many
	// validations (0 = review whole repairs).
	ReviewPerIteration int
	// Observer, when non-nil, receives the latency of every pipeline stage
	// ("convert", "wrapper", "dbgen", "check", "solver"); the dartd service
	// feeds its histograms through it.
	Observer StageObserver
}

// StageObserver receives per-stage pipeline latencies. It predates the
// span tracer (internal/obs) and survives as a shim: stages are now traced
// as spans named "stage.<name>" on the context's trace, and the observer is
// fed the same interval, so existing histogram plumbing keeps working
// unchanged.
type StageObserver interface {
	// ObserveStage records that the named stage took d.
	ObserveStage(stage string, d time.Duration)
}

// stage begins one pipeline-stage measurement: a "stage.<name>" span as a
// child of ctx's trace span (when tracing is on) plus the StageObserver
// shim. It returns a context carrying the stage span (so nested work —
// component solves, validation iterations — attaches beneath it) and a func
// ending both the span and the observer interval. Without a span in ctx the
// context is returned unchanged and only the shim fires.
func (p *Pipeline) stage(ctx context.Context, name string) (context.Context, func()) {
	start := time.Now()
	var sp *obs.Span
	if parent := obs.FromContext(ctx); parent != nil {
		sp = parent.StartChild("stage." + name)
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	return ctx, func() {
		sp.End()
		if p.Observer != nil {
			p.Observer.ObserveStage(name, time.Since(start))
		}
	}
}

// Acquisition is the output of the acquisition and extraction module.
type Acquisition struct {
	// HTML is the normalized document the wrapper consumed.
	HTML string
	// Instances are the extracted row pattern instances.
	Instances []*Instance
	// SkippedRows are document rows no pattern matched acceptably.
	SkippedRows []Skipped
	// RowErrors are instances the database generator could not convert.
	RowErrors []RowError
	// Database is the generated (possibly inconsistent) instance.
	Database *Database
	// Violations are the unsatisfied ground constraints of Database.
	Violations []Violation
	// StringRepairs lists the dictionary corrections the wrapper applied to
	// non-numerical strings during extraction (Section 6.2).
	StringRepairs []StringRepair
}

// Consistent reports whether the acquired database already satisfies the
// constraints.
func (a *Acquisition) Consistent() bool { return len(a.Violations) == 0 }

// Result is the output of the full pipeline.
type Result struct {
	Acquisition *Acquisition
	// Repair is the accepted repair (empty for consistent acquisitions).
	Repair *Repair
	// Repaired is the final consistent database.
	Repaired *Database
	// Validation reports the operator loop (nil without an Operator).
	Validation *ValidationOutcome
	// ComponentsSolved and ComponentsReused count component-level solver
	// work: how many violated connected components were solved, and how
	// many of those re-solves the prepared problem served from its memo
	// without solver work (nonzero only in multi-iteration operator loops).
	ComponentsSolved, ComponentsReused int
	// SolverNodes totals the branch-and-bound nodes explored by the repair
	// solver (schedule-dependent when solving with parallel workers).
	SolverNodes int
}

// Acquire runs the acquisition and extraction module: format detection and
// conversion, wrapping, database generation, and consistency checking.
func (p *Pipeline) Acquire(src string) (*Acquisition, error) {
	return p.AcquireContext(context.Background(), src)
}

// AcquireContext is Acquire with a context: acquisition stages are fast, so
// the context is checked between stages rather than within them.
func (p *Pipeline) AcquireContext(ctx context.Context, src string) (*Acquisition, error) {
	if p.Metadata == nil {
		return nil, fmt.Errorf("dart: pipeline has no metadata")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, endConvert := p.stage(ctx, "convert")
	html, err := convert.ToHTML(src, convert.Detect(src))
	endConvert()
	if err != nil {
		return nil, fmt.Errorf("dart: format conversion: %w", err)
	}
	w := p.Metadata.NewWrapper()
	wctx, endWrapper := p.stage(ctx, "wrapper")
	instances, skipped, err := w.Extract(html)
	if err != nil {
		endWrapper()
		return nil, fmt.Errorf("dart: extraction: %w", err)
	}
	var repairs []StringRepair
	for _, in := range instances {
		repairs = append(repairs, in.Corrections()...)
	}
	if sp := obs.FromContext(wctx); sp != nil {
		sp.SetInt("rows", len(instances))
		sp.SetInt("skipped", len(skipped))
		sp.SetInt("string_repairs", len(repairs))
	}
	endWrapper()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, endDbgen := p.stage(ctx, "dbgen")
	db, rowErrs, err := p.Metadata.NewGenerator().Generate(instances)
	endDbgen()
	if err != nil {
		return nil, fmt.Errorf("dart: database generation: %w", err)
	}
	_, endCheck := p.stage(ctx, "check")
	viols, err := aggrcons.Check(db, p.Metadata.Constraints(), 1e-9)
	endCheck()
	if err != nil {
		return nil, fmt.Errorf("dart: consistency check: %w", err)
	}
	return &Acquisition{
		HTML:          html,
		Instances:     instances,
		SkippedRows:   skipped,
		RowErrors:     rowErrs,
		Database:      db,
		Violations:    viols,
		StringRepairs: repairs,
	}, nil
}

// Repair runs the repairing module on an acquired database, including the
// operator validation loop when an Operator is configured.
func (p *Pipeline) Repair(acq *Acquisition) (*Result, error) {
	return p.RepairContext(context.Background(), acq)
}

// RepairContext is Repair with a context: with a cancellation-aware solver
// (the default MILP solver is one) a long solve aborts with ctx.Err() at
// the next branch-and-bound node once ctx is done.
//
// The repair problem is prepared (grounded and decomposed) exactly once;
// the solve — and, with an Operator, every iteration of the validation
// loop — re-solves the prepared problem. The observer sees the one-time
// "prepare" stage, a "resolve" stage per repair computation, and the
// aggregate "solver" stage covering the whole repairing module.
func (p *Pipeline) RepairContext(ctx context.Context, acq *Acquisition) (*Result, error) {
	res := &Result{Acquisition: acq}
	solver := p.Solver
	if solver == nil {
		solver = NewMILPSolver()
	}
	if acq.Consistent() {
		res.Repair = &core.Repair{}
		res.Repaired = acq.Database
		return res, nil
	}
	if p.Operator == nil && p.Decider == nil {
		sctx, endSolver := p.stage(ctx, "solver")
		pctx, endPrepare := p.stage(sctx, "prepare")
		prob, err := core.Prepare(acq.Database, p.Metadata.Constraints())
		if sp := obs.FromContext(pctx); sp != nil && err == nil {
			sp.SetInt("vars", prob.N())
			sp.SetInt("rows", len(prob.System().Rows))
		}
		endPrepare()
		if err != nil {
			endSolver()
			return nil, fmt.Errorf("dart: repair: %w", err)
		}
		rctx, endResolve := p.stage(sctx, "resolve")
		r, err := solver.SolveProblem(rctx, prob, nil)
		endResolve()
		endSolver()
		if err != nil {
			return nil, fmt.Errorf("dart: repair: %w", err)
		}
		if r.Repair == nil {
			return nil, fmt.Errorf("dart: no repair found (status %v)", r.Status)
		}
		repaired, err := core.VerifyRepairs(acq.Database, p.Metadata.Constraints(), r.Repair, 1e-6)
		if err != nil {
			return nil, err
		}
		res.Repair = r.Repair
		res.Repaired = repaired
		res.ComponentsSolved = r.Components - r.ComponentsReused
		res.ComponentsReused = r.ComponentsReused
		res.SolverNodes = r.Nodes
		return res, nil
	}
	sctx, endSolver := p.stage(ctx, "solver")
	session := &validate.Session{
		DB:                 acq.Database,
		Constraints:        p.Metadata.Constraints(),
		Solver:             solver,
		Operator:           p.Operator,
		Decider:            p.Decider,
		Ledger:             p.Ledger,
		Context:            sctx,
		ReviewPerIteration: p.ReviewPerIteration,
	}
	if p.Observer != nil {
		session.Observe = func(stage string, d time.Duration) {
			p.Observer.ObserveStage(stage, d)
		}
	}
	out, err := session.Run()
	endSolver()
	if err != nil {
		return nil, fmt.Errorf("dart: validation loop: %w", err)
	}
	res.Repair = out.Final
	res.Repaired = out.Repaired
	res.Validation = out
	res.ComponentsSolved = out.ComponentsSolved
	res.ComponentsReused = out.ComponentsReused
	res.SolverNodes = out.SolverNodes
	return res, nil
}

// Process runs the complete pipeline on one document.
func (p *Pipeline) Process(src string) (*Result, error) {
	return p.ProcessContext(context.Background(), src)
}

// ProcessContext runs the complete pipeline on one document under a
// context; deadlines cancel long MILP solves mid-search.
func (p *Pipeline) ProcessContext(ctx context.Context, src string) (*Result, error) {
	acq, err := p.AcquireContext(ctx, src)
	if err != nil {
		return nil, err
	}
	return p.RepairContext(ctx, acq)
}
