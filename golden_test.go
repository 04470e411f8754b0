package dart_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dart"
	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/metadata"
	"dart/internal/runningex"
)

var update = flag.Bool("update", false, "rewrite testdata/repairs.golden from the current solver")

const repairsGoldenPath = "testdata/repairs.golden"

// pipelineOutput flattens one pipeline run into a comparison string;
// errors are observable behaviour and are pinned too.
func pipelineOutput(md *metadata.Metadata, src string, solver *core.MILPSolver) string {
	res, err := (&dart.Pipeline{Metadata: md, Solver: solver}).Process(src)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("repair:\n%s\nrepaired:\n%s", res.Repair, res.Repaired)
}

// wideBudgetRepair is the repair of a 40-year cash budget with 8 injected
// errors, a problem that decomposes into many violated components.
func wideBudgetRepair(tb testing.TB, solver *core.MILPSolver) string {
	tb.Helper()
	rng := rand.New(rand.NewSource(14))
	db := docgen.BudgetDatabase(docgen.RandomBudget(rng, 2000, 40))
	corruptBudget(db, 8, rng)
	res, err := solver.FindRepair(db, runningex.Constraints(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return fmt.Sprintf("card %d\n%s", res.Card, res.Repair)
}

// renderRepairsGolden computes every pinned case with the default solver.
func renderRepairsGolden(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, sc := range scenarioDocs(t) {
		out[sc.name] = pipelineOutput(sc.md, sc.src, &core.MILPSolver{})
	}
	out["budget-40y-8e"] = wideBudgetRepair(t, &core.MILPSolver{})
	return out
}

// loadRepairsGolden parses the golden file into its "=== name" sections.
func loadRepairsGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(repairsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	for _, part := range strings.Split(string(raw), "=== ")[1:] {
		name, body, _ := strings.Cut(part, "\n")
		sections[name] = strings.TrimSuffix(body, "\n")
	}
	return sections
}

// TestRepairsMatchGolden pins the repair and repaired database of every
// built-in scenario, plus the 40-year/8-error budget repair, so any solver
// change that alters which card-minimal repair is returned shows up here.
func TestRepairsMatchGolden(t *testing.T) {
	got := renderRepairsGolden(t)
	if *update {
		var b strings.Builder
		for _, name := range []string{"cashbudget", "catalog", "balancesheet", "budget-40y-8e"} {
			fmt.Fprintf(&b, "=== %s\n%s\n", name, got[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(repairsGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := loadRepairsGolden(t)
	if len(want) != len(got) {
		t.Errorf("%s has %d cases, want %d", repairsGoldenPath, len(want), len(got))
	}
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", name, repairsGoldenPath, g, want[name])
		}
	}
}
