package analysis

import (
	"sync"
	"testing"
)

// loadModule type-checks the whole module once per test binary: the
// self-test and the budget read the same load.
var loadModule = sync.OnceValues(func() ([]*Package, error) { return Load("./...") })

// TestRepoCleanUnderParallaxvet is the self-test gate: the whole
// module must run clean under all four analyzers. A new
// order-dependent map fold, wall-clock read, un-wrapped sentinel, or
// blocking-under-lock site anywhere in the tree fails this test until
// it is fixed or carries a justified //parallax: pragma. Fixture
// packages under testdata/ are exempt automatically — the ./...
// pattern never matches testdata directories.
func TestRepoCleanUnderParallaxvet(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module via go list -export")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("running parallaxvet: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Error("parallaxvet must run clean over the tree; fix the findings or justify them with //parallax: pragmas (DESIGN.md §15)")
	}
}
