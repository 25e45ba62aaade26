package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Auto-checkpoint layout: the session saves periodic full checkpoints
// under one root directory, one subdirectory per saved step —
//
//	root/
//	  MEMBERS          current fabric generation and roster (members.go)
//	  step-00000010/   a normal checkpoint directory (machine-*.ckpt)
//	  step-00000020/
//
// A step directory is complete once every machine's shard is present;
// WriteShard's atomic rename makes each shard all-or-nothing, so "all
// files exist" is the completeness criterion. Survivors and restarted
// agents independently scan the root and restore from the latest
// complete step, then verify cluster-wide agreement on it over the
// fresh fabric.

// StepDir returns the auto-checkpoint directory for one saved step.
func StepDir(root string, step int) string {
	return filepath.Join(root, fmt.Sprintf("step-%08d", step))
}

// LatestComplete scans root for the newest step directory containing
// every machine's shard. It returns step = -1 (no error) when the root
// does not exist or holds no complete checkpoint.
func LatestComplete(root string, machines int) (step int, dir string, err error) {
	complete, _, err := stepDirs(root, machines)
	if err != nil || len(complete) == 0 {
		return -1, "", err
	}
	step = complete[len(complete)-1]
	return step, StepDir(root, step), nil
}

// stepDirs lists root's step directories split by completeness, the
// complete ones in ascending step order. A root that does not exist
// holds none.
func stepDirs(root string, machines int) (complete, incomplete []int, err error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, e := range ents {
		n, ok := parseStepDir(e.Name())
		if !e.IsDir() || !ok {
			continue
		}
		if stepComplete(StepDir(root, n), machines) {
			complete = append(complete, n)
		} else {
			incomplete = append(incomplete, n)
		}
	}
	sort.Ints(complete)
	return complete, incomplete, nil
}

func parseStepDir(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "step-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func stepComplete(dir string, machines int) bool {
	for m := 0; m < machines; m++ {
		if _, err := os.Stat(ShardPath(dir, m)); err != nil {
			return false
		}
	}
	return true
}

// PruneAuto removes the oldest complete step directories beyond the
// newest keep, plus any incomplete directory older than the newest
// complete one (debris from a save interrupted by the very failure a
// later recovery restored past). Incomplete directories newer than the
// latest complete step are left alone — a peer may still be writing its
// shard there.
func PruneAuto(root string, machines, keep int) error {
	if keep < 1 {
		keep = 1
	}
	complete, incomplete, err := stepDirs(root, machines)
	if err != nil {
		return err
	}
	var firstErr error
	rm := func(step int) {
		if err := os.RemoveAll(StepDir(root, step)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for len(complete) > keep {
		rm(complete[0])
		complete = complete[1:]
	}
	if len(complete) > 0 {
		newest := complete[len(complete)-1]
		for _, n := range incomplete {
			if n < newest {
				rm(n)
			}
		}
	}
	return firstErr
}
