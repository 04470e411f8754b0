package milp

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/solve.golden from the current solver")

const solveGoldenPath = "testdata/solve.golden"

// goldenSeeds lists the random integer programs whose answers are pinned:
// 60 models drawn from seed 4242, the rerun model 991, and 25 cutoff models
// drawn from seed 17.
func goldenSeeds() (random []int64, rerun int64, cutoff []int64) {
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 60; i++ {
		random = append(random, rng.Int63())
	}
	rng = rand.New(rand.NewSource(17))
	for i := 0; i < 25; i++ {
		cutoff = append(cutoff, rng.Int63())
	}
	return random, 991, cutoff
}

// goldenLine renders a solve result exactly: status, objective and X with
// shortest round-trip float formatting, so equal lines mean bit-identical
// answers.
func goldenLine(src int64, res *MILPResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %s obj=%s x=[", src, res.Status, strconv.FormatFloat(res.Objective, 'g', -1, 64))
	for j, v := range res.X {
		if j > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteByte(']')
	return b.String()
}

// loadSolveGolden returns the pinned line of every golden seed. Under
// -update it first regenerates the file from the current solver.
func loadSolveGolden(t *testing.T) map[int64]string {
	t.Helper()
	if *update {
		random, rerun, cutoff := goldenSeeds()
		var b strings.Builder
		for _, src := range append(append(random, rerun), cutoff...) {
			res, err := Solve(randomIntegerModel(src), MILPOptions{})
			if err != nil {
				t.Fatalf("model %d: %v", src, err)
			}
			b.WriteString(goldenLine(src, res) + "\n")
		}
		if err := os.WriteFile(solveGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(solveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[int64]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		src, err := strconv.ParseInt(strings.Fields(sc.Text())[0], 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", solveGoldenPath, err)
		}
		golden[src] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// solveAgainstGolden solves model src with opt and checks the answer is
// bit-identical to the pinned one.
func solveAgainstGolden(t *testing.T, golden map[int64]string, src int64, opt MILPOptions) {
	t.Helper()
	want, ok := golden[src]
	if !ok {
		t.Fatalf("model %d missing from %s", src, solveGoldenPath)
	}
	res, err := Solve(randomIntegerModel(src), opt)
	if err != nil {
		t.Fatalf("model %d: %v", src, err)
	}
	if got := goldenLine(src, res); got != want {
		t.Errorf("answer drifted from %s:\n got %s\nwant %s", solveGoldenPath, got, want)
	}
}

// TestSolveMatchesGoldenRandom: on random integer programs with integral
// objectives, every solve returns the status, objective and X pinned in
// the golden file.
func TestSolveMatchesGoldenRandom(t *testing.T) {
	golden := loadSolveGolden(t)
	random, _, _ := goldenSeeds()
	for _, src := range random {
		solveAgainstGolden(t, golden, src, MILPOptions{})
	}
}

// TestSolveRepeatedStable re-runs one solve many times: the pooled simplex
// state and node pool must not leak between solves, so every run commits
// the pinned incumbent.
func TestSolveRepeatedStable(t *testing.T) {
	golden := loadSolveGolden(t)
	_, rerun, _ := goldenSeeds()
	for i := 0; i < 12; i++ {
		solveAgainstGolden(t, golden, rerun, MILPOptions{})
	}
}

// TestCutoffMatchesGolden: feeding the pinned optimum back as the
// warm-start cutoff reproduces the pinned solution exactly.
func TestCutoffMatchesGolden(t *testing.T) {
	golden := loadSolveGolden(t)
	_, _, cutoff := goldenSeeds()
	for _, src := range cutoff {
		fields := strings.Fields(golden[src])
		if len(fields) < 3 || fields[1] != StatusOptimal.String() {
			continue
		}
		obj, err := strconv.ParseFloat(strings.TrimPrefix(fields[2], "obj="), 64)
		if err != nil {
			t.Fatalf("model %d: %v", src, err)
		}
		solveAgainstGolden(t, golden, src, MILPOptions{CutoffObjective: &obj})
	}
}
