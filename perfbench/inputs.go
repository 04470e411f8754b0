package main

import (
	"math/rand"

	"dart/internal/docgen"
	"dart/internal/ocr"
	"dart/internal/relational"
	"dart/internal/scenario"
)

// doc is one generated input: the document the program sees, the built-in
// scenario whose metadata reads it, and the generator's ground truth.
type doc struct {
	scenario string // cashbudget, catalog or balancesheet (dartd's names)
	src      string
	truth    *relational.Database
}

// scenarioSources maps each scenario name to its metadata text; parsing
// these is the library workloads' set-up.
var scenarioSources = map[string]func() string{
	"cashbudget":   scenario.CashBudgetSource,
	"catalog":      scenario.CatalogSource,
	"balancesheet": scenario.BalanceSheetSource,
}

// corrupt injects numeric misreads into measure values only (the last cell
// of every row, never a year) and string misreads at stringRate, then
// renders odd-numbered documents as scan text and even ones as HTML.
func corrupt(d *docgen.Document, i, misreads int, stringRate float64, rng *rand.Rand) string {
	noisy, _ := ocr.Corrupt(d, ocr.Options{
		NumericErrors: misreads,
		StringRate:    stringRate,
		EligibleNumeric: func(table, row, col int, _ string) bool {
			return col == len(d.Tables[table].Rows[row])-1
		},
	}, rng)
	if i%2 == 1 {
		return noisy.ScanText()
	}
	return noisy.HTML()
}

// smallDocs is the E10-shaped stream: 2-year cash budgets, 8-order
// catalogs and 2-year balance sheets in rotation, each with one numeric
// misread and 5% string noise. Rotating kinds (period 3) against formats
// (period 2) gives every kind half HTML and half scan text.
func smallDocs(seed int64, n int) []doc {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]doc, n)
	for i := range docs {
		var d *docgen.Document
		var truth *relational.Database
		var sc string
		switch i % 3 {
		case 0:
			years := docgen.RandomBudget(rng, 2000, 2)
			d, truth, sc = docgen.BudgetDocument(years), docgen.BudgetDatabase(years), "cashbudget"
		case 1:
			orders := docgen.RandomOrders(rng, 8)
			d, truth, sc = docgen.OrdersDocument(orders), docgen.OrdersDatabase(orders), "catalog"
		default:
			years := docgen.RandomBalanceSheet(rng, 2000, 2)
			d, truth, sc = docgen.BalanceSheetDocument(years), docgen.BalanceSheetDatabase(years), "balancesheet"
		}
		docs[i] = doc{scenario: sc, src: corrupt(d, i, 1, 0.05, rng), truth: truth}
	}
	return docs
}

// budgets generates n cash-budget documents of the given length, with
// misreads(rng) numeric misreads each and the given string noise.
func budgets(seed int64, n, years int, misreads func(*rand.Rand) int, stringRate float64) []doc {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]doc, n)
	for i := range docs {
		ys := docgen.RandomBudget(rng, 1900, years)
		src := corrupt(docgen.BudgetDocument(ys), i, misreads(rng), stringRate, rng)
		docs[i] = doc{scenario: "cashbudget", src: src, truth: docgen.BudgetDatabase(ys)}
	}
	return docs
}

// wideBudgets is 100-year cash budgets (1,000 tuples) with one misread per
// five years.
func wideBudgets(seed int64, n int) []doc {
	return budgets(seed, n, 100, func(*rand.Rand) int { return 20 }, 0)
}

// reviewBudgets is 10-year cash budgets with 6-10 misreads, for the
// operator loop. It has no string noise: at 5% the wrapper dropped a row
// in about one document in 300, which left that repair infeasible, and the
// wrapper is measured on small-docs.
func reviewBudgets(seed int64, n int) []doc {
	return budgets(seed, n, 10, func(rng *rand.Rand) int { return 6 + rng.Intn(5) }, 0)
}
