package parallax

import (
	"os/exec"
	"strings"
	"testing"
)

// TestRuntimeDoesNotLinkTheSimulator guards the import boundary between
// the runtime and the paper model: the library, the service, and the
// agent and daemon binaries train on real steps and must not depend —
// directly or transitively — on the virtual-time plane (the discrete-event
// engine, the paper-scale model specs and the experiments), which serves
// the paper tables (parallax-bench, parallax-info, examples/, bench/) only.
func TestRuntimeDoesNotLinkTheSimulator(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps",
		".", "./internal/serve", "./internal/jobspec", "./cmd/parallax-agent", "./cmd/parallax-serve").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	simulator := map[string]bool{
		"parallax/internal/engine": true, "parallax/internal/models": true, "parallax/internal/experiments": true,
	}
	for _, pkg := range strings.Fields(string(out)) {
		if simulator[pkg] {
			t.Errorf("a runtime package depends on %s", pkg)
		}
	}
}
