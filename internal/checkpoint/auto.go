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
//	  EPOCH            current fabric generation (recovery protocol)
//	  step-00000010/   a normal checkpoint directory (machine-*.ckpt)
//	  step-00000020/
//
// A step directory is complete once every machine's shard is present;
// WriteShard's atomic rename makes each shard all-or-nothing, so "all
// files exist" is the completeness criterion. Survivors and restarted
// agents independently scan the root and restore from the latest
// complete step, then verify cluster-wide agreement on it over the
// fresh fabric.

const epochFile = "EPOCH"

// StepDir returns the auto-checkpoint directory for one saved step.
func StepDir(root string, step int) string {
	return filepath.Join(root, fmt.Sprintf("step-%08d", step))
}

// LatestComplete scans root for the newest step directory containing
// every machine's shard. It returns step = -1 (no error) when the root
// does not exist or holds no complete checkpoint.
func LatestComplete(root string, machines int) (step int, dir string, err error) {
	ents, rerr := os.ReadDir(root)
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return -1, "", nil
		}
		return -1, "", rerr
	}
	steps := make([]int, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		n, ok := parseStepDir(e.Name())
		if !ok {
			continue
		}
		steps = append(steps, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	for _, n := range steps {
		d := StepDir(root, n)
		if stepComplete(d, machines) {
			return n, d, nil
		}
	}
	return -1, "", nil
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
	ents, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var complete, incomplete []int
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		n, ok := parseStepDir(e.Name())
		if !ok {
			continue
		}
		if stepComplete(StepDir(root, n), machines) {
			complete = append(complete, n)
		} else {
			incomplete = append(incomplete, n)
		}
	}
	sort.Ints(complete)
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

// ReadEpoch returns the fabric generation recorded in root, 0 when the
// root or the record does not exist yet (a fresh run's first epoch).
func ReadEpoch(root string) (int, error) {
	b, err := os.ReadFile(filepath.Join(root, epochFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("checkpoint: malformed epoch record in %s: %q", root, b)
	}
	return n, nil
}

// WriteEpoch atomically records the fabric generation in root, creating
// the root if needed. Survivors write epoch+1 before re-dialing; a
// restarted agent reads it before joining, and re-reads on
// ErrEpochMismatch. Concurrent writers always write the same value
// (everyone computes lastEpoch+1 from the same record), so the atomic
// rename makes any interleaving safe.
func WriteEpoch(root string, epoch int) error {
	return writeAtomic(root, epochFile, []byte(strconv.Itoa(epoch)+"\n"))
}
