package dart_test

// Differential tests for component fan-out: repairs computed with
// components solved concurrently (MILPSolver.Workers > 1) must be
// byte-identical to the sequential solve on every built-in scenario and
// across validation sessions. These tests run the full pipeline
// (extraction, grounding, decomposition, compile, solve, verify). CI runs
// them under -race.

import (
	"math/rand"
	"testing"

	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/metadata"
	"dart/internal/ocr"
	"dart/internal/runningex"
	"dart/internal/scenario"
	"dart/internal/validate"
)

// scenarioDocs builds one corrupted document per built-in scenario.
func scenarioDocs(t *testing.T) []struct {
	name string
	md   *metadata.Metadata
	src  string
} {
	t.Helper()
	type entry = struct {
		name string
		md   *metadata.Metadata
		src  string
	}
	load := func(name string, mk func() (*metadata.Metadata, error), doc *docgen.Document, seed int64) entry {
		md, err := mk()
		if err != nil {
			t.Fatalf("%s metadata: %v", name, err)
		}
		noisy, _ := ocr.Corrupt(doc, ocr.Options{
			NumericErrors: 2,
			EligibleNumeric: func(table, row, col int, text string) bool {
				return !(row == 0 && col == 0)
			},
		}, rand.New(rand.NewSource(seed)))
		return entry{name, md, noisy.HTML()}
	}
	rng := rand.New(rand.NewSource(55))
	return []entry{
		load("cashbudget", scenario.CashBudget,
			docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 4)), 1),
		load("catalog", scenario.Catalog,
			docgen.OrdersDocument(docgen.RandomOrders(rng, 12)), 2),
		load("balancesheet", scenario.BalanceSheet,
			docgen.BalanceSheetDocument(docgen.RandomBalanceSheet(rng, 2000, 3)), 3),
	}
}

// TestParallelRepairMatchesSequentialScenarios: on every built-in scenario,
// solving components concurrently returns the exact repair and repaired
// database pinned in the golden file for the sequential solve.
func TestParallelRepairMatchesSequentialScenarios(t *testing.T) {
	golden := loadRepairsGolden(t)
	for _, sc := range scenarioDocs(t) {
		t.Run(sc.name, func(t *testing.T) {
			par := pipelineOutput(sc.md, sc.src, &core.MILPSolver{Workers: 4})
			if want := golden[sc.name]; par != want {
				t.Errorf("parallel solve diverged from the golden sequential repair:\n--- golden ---\n%s\n--- parallel ---\n%s", want, par)
			}
		})
	}
}

// TestParallelSessionMatchesSequential runs multi-iteration oracle
// validation sessions over the differential corpus with components solved
// concurrently: every configuration must be byte-identical to the
// sequential session, including operator decision counts, which depend on
// every intermediate repair.
func TestParallelSessionMatchesSequential(t *testing.T) {
	for _, doc := range diffCorpus() {
		t.Run(doc.name, func(t *testing.T) {
			run := func(workers int) string {
				return runDiffSession(&validate.Session{
					DB:                 doc.db,
					Constraints:        runningex.Constraints(),
					Solver:             &core.MILPSolver{Workers: workers},
					Operator:           &validate.OracleOperator{Truth: doc.truth},
					ReviewPerIteration: 1,
				})
			}
			seq := run(1)
			for _, workers := range []int{2, 4} {
				if par := run(workers); par != seq {
					t.Errorf("Workers=%d diverged:\n--- sequential ---\n%s\n--- parallel ---\n%s", workers, seq, par)
				}
			}
		})
	}
}
