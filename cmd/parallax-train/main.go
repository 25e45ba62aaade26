// Command parallax-train demonstrates real distributed training through
// the public Session API: a small language model with a sparse embedding
// trains on in-process workers under the hybrid architecture, printing
// the loss curve and the per-variable synchronization plan. Ctrl-C
// drains the in-flight step and exits cleanly (writing a final
// checkpoint when -checkpoint is set); -resume continues a checkpointed
// run bit-identically.
//
// Usage:
//
//	parallax-train [-machines 2] [-gpus 2] [-vocab 2000] [-steps 100]
//	               [-arch hybrid|ar|ps|optps] [-clip 5.0]
//	               [-compression none|f16|bf16|topk[=FRAC]]
//	               [-checkpoint dir [-resume]]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parallax"
	"parallax/internal/buildinfo"
	"parallax/internal/jobspec"
)

func main() {
	spec := jobspec.Default()
	// parallax-train measures the embedding's real α before opening; the
	// agent binary skips this so every agent plans from identical inputs.
	spec.MeasureAlpha = true
	machines := flag.Int("machines", 2, "machines")
	gpus := flag.Int("gpus", 2, "GPUs per machine")
	spec.BindCommonFlags(flag.CommandLine)
	ckpt := flag.String("checkpoint", "", "checkpoint directory: written on exit (normal completion or Ctrl-C drain)")
	resume := flag.Bool("resume", false, "resume from -checkpoint instead of initializing")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	spec.Machines, spec.GPUs = *machines, *gpus
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	if *resume && *ckpt == "" {
		log.Fatal("-resume requires -checkpoint")
	}
	policy, err := parallax.ParseCompression(spec.Compression)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	g := spec.Graph()
	resources := spec.Resources()
	ds := spec.Dataset()
	opts, err := spec.Options()
	if err != nil {
		log.Fatal(err)
	}

	var sess *parallax.Session
	if *resume {
		sess, err = parallax.OpenFromCheckpoint(ctx, *ckpt, g, resources, opts...)
	} else {
		sess, err = parallax.Open(ctx, g, resources, opts...)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	fmt.Print(sess.Describe())
	fmt.Print(policy.Describe())
	fmt.Printf("measured alpha(embedding) = %.4f, sparse partitions = %d\n",
		spec.Alpha(), sess.SparsePartitions())
	if *resume {
		fmt.Printf("resumed from %s at step %d\n", *ckpt, sess.StepCount())
	}
	fmt.Println()

	if sess.StepCount() >= spec.Steps {
		fmt.Printf("nothing to do: checkpoint at step %d >= -steps %d\n", sess.StepCount(), spec.Steps)
		return
	}

	// The streaming step driver: one endless stream, consumed as disjoint
	// per-worker shards, each iteration yielding the step's metrics.
	var stats parallax.LoopStats
	interrupted := false
	for st, err := range sess.Steps(ctx, ds) {
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted = true
				break
			}
			log.Fatal(err)
		}
		stats.Observe(st)
		if st.Step%10 == 0 || st.Step == spec.Steps-1 {
			fmt.Printf("step %4d  loss %.4f  (%v, %d KB pushed)\n",
				st.Step, st.Loss, st.StepTime.Round(10*time.Microsecond), st.BytesPushed/1024)
		}
		if st.Step >= spec.Steps-1 {
			break
		}
	}
	if *ckpt != "" {
		if err := sess.Save(*ckpt); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		fmt.Printf("checkpoint saved to %s at step %d\n", *ckpt, sess.StepCount())
	}
	if interrupted {
		fmt.Printf("interrupted: drained cleanly after step %d\n", sess.StepCount()-1)
		return
	}
	fmt.Printf("\n%s\n", stats)
}
