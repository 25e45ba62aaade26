// Command parallax-agent trains the standard hybrid LM workload through
// the public Session API. Without -machine it runs the whole cluster in
// one process, printing the plan and the loss curve. With -machine it
// hosts one machine's share of a distributed run — its GPUs' worker
// replicas and its parameter server — wired to peer agents over
// transport.TCP: launching one agent per machine on a shared address
// list runs the same workload spanning OS processes. Every agent builds
// the identical graph from the same seed, the plan is recomputed
// identically everywhere, and the per-step losses (exchanged over the
// wire in rank order) are bit-identical to the single-process run.
//
// The agent is driven through the Session API: SIGINT/SIGTERM cancel
// the step loop at the next cluster-agreed step boundary (all agents
// stop at the same step), a final checkpoint is written when
// -checkpoint is set, and the fabric tears down cleanly. Restarting
// every agent with -resume continues the run bit-identically.
//
// -compression enables the sparsity-aware wire compression layer
// (DESIGN.md §11): none|f16|bf16|topk[=FRAC]. The policy is part of the
// job's identity — every agent must pass the same value (the TCP
// rendezvous refuses mismatched peers) and a -resume must match the
// checkpoint. Because the lossy transforms run deterministically in the
// data plane, a compressed TCP run still reproduces the compressed
// in-process reference bit for bit.
//
// Usage:
//
//	# in-process reference (no wire):
//	parallax-agent -machines 2 -gpus 2 -steps 50
//
//	# the same cluster as two agent processes on loopback:
//	parallax-agent -machine 0 -addrs 127.0.0.1:7701,127.0.0.1:7702 -gpus 2 -steps 50 &
//	parallax-agent -machine 1 -addrs 127.0.0.1:7701,127.0.0.1:7702 -gpus 2 -steps 50
//
//	# stop at step 20 with a checkpoint, then resume to 50:
//	parallax-agent ... -steps 20 -checkpoint /ckpt/run1
//	parallax-agent ... -steps 50 -checkpoint /ckpt/run1 -resume
//
//	# grow a running -elastic cluster by a third agent serving on :7703;
//	# it files its join request in the shared root, so it needs no
//	# member's address:
//	parallax-agent -join 127.0.0.1:7703 -elastic -auto-checkpoint /ckpt/auto -gpus 2 -steps 50
//
// Both print "final loss bits=..." lines that must match bit for bit —
// including across a checkpoint/resume split.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parallax"
	"parallax/internal/buildinfo"
	"parallax/internal/jobspec"
)

func main() {
	spec := jobspec.Default()
	spec.Partitions = 8
	machine := flag.Int("machine", -1, "machine index this agent hosts (-1 = run the whole cluster in-process)")
	addrs := flag.String("addrs", "", "comma-separated agent addresses, one per machine (required with -machine >= 0)")
	machines := flag.Int("machines", 2, "machine count for the in-process reference mode (ignored when -addrs is set)")
	gpus := flag.Int("gpus", 2, "GPUs per machine")
	spec.BindCommonFlags(flag.CommandLine)
	flag.IntVar(&spec.Partitions, "partitions", spec.Partitions,
		"sparse partitions; 0 searches for the count during the first steps (agents agree on every measurement, so they reshard in lockstep)")
	dialTimeout := flag.Duration("dial-timeout", 15*time.Second, "peer rendezvous timeout")
	ckpt := flag.String("checkpoint", "", "checkpoint directory: written on exit (normal completion or SIGINT/SIGTERM drain)")
	resume := flag.Bool("resume", false, "resume from -checkpoint instead of initializing (run it on every agent)")
	autoCkpt := flag.String("auto-checkpoint", "",
		"auto-checkpoint root (shared across agents): periodic saves land under it, and a (re)started agent resumes from the latest complete one automatically")
	autoEvery := flag.Int("auto-checkpoint-every", 10, "auto-checkpoint cadence in steps")
	recov := flag.Bool("recover", false,
		"survive peer-agent failures: re-rendezvous at the next fabric epoch and restore the latest auto-checkpoint (requires -auto-checkpoint; see OPERATIONS.md)")
	elastic := flag.Bool("elastic", false,
		"enable elastic membership (DESIGN.md §14): the cluster admits joiners and sheds leavers at step boundaries without a restart (requires -auto-checkpoint on a shared root)")
	join := flag.String("join", "",
		"join a running elastic cluster, serving on the given address once admitted, instead of rendezvousing from -addrs: the join request goes through the -auto-checkpoint root, so no member address is needed (requires -elastic)")
	allowShrink := flag.Bool("allow-shrink", false,
		"with -elastic and -recover: shed a dead peer by resharding onto the survivors instead of waiting out its restart")
	leaveAt := flag.Int("leave-at", -1, "request a voluntary departure from the elastic cluster after completing this step (testing/preemption drills)")
	chaosSpec := flag.String("chaos", "", "fault-injection spec, e.g. kill@17 (internal testing knob; see internal/chaos)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	spec.Machines, spec.GPUs = *machines, *gpus
	if *join != "" {
		// A joiner contributes exactly one machine; the MEMBERS record
		// that admits it assigns its index and the full address list.
		spec.Machines = 1
	} else if *addrs != "" {
		spec.Machines = len(strings.Split(*addrs, ","))
	}
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

	// SIGINT/SIGTERM cancel the context; the step loop drains the
	// in-flight step, every agent stops at the same agreed boundary, and
	// the deferred teardown (plus the final checkpoint) runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts, err := spec.Options()
	if err != nil {
		log.Fatal(err)
	}
	if *autoCkpt != "" {
		opts = append(opts, parallax.WithAutoCheckpoint(*autoCkpt, *autoEvery))
	}
	if *recov {
		if *autoCkpt == "" {
			log.Fatal("-recover requires -auto-checkpoint")
		}
		opts = append(opts, parallax.WithRecovery(parallax.RecoveryPolicy{
			Enabled: true, AllowShrink: *allowShrink,
		}))
	} else if *allowShrink {
		log.Fatal("-allow-shrink requires -recover")
	}
	if *elastic {
		if *autoCkpt == "" {
			log.Fatal("-elastic requires -auto-checkpoint")
		}
		opts = append(opts, parallax.WithElastic())
	} else if *join != "" {
		log.Fatal("-join requires -elastic")
	} else if *leaveAt >= 0 {
		log.Fatal("-leave-at requires -elastic")
	}
	if *join != "" {
		opts = append(opts, parallax.WithDistConfig(parallax.DistConfig{
			JoinAddr: *join, DialTimeout: *dialTimeout, Chaos: *chaosSpec,
		}))
	} else if *addrs != "" {
		list := strings.Split(*addrs, ",")
		if *machine < 0 || *machine >= len(list) {
			log.Fatalf("-machine %d out of range for %d addresses", *machine, len(list))
		}
		opts = append(opts, parallax.WithDistConfig(parallax.DistConfig{
			Machine: *machine, Addrs: list, DialTimeout: *dialTimeout, Chaos: *chaosSpec,
		}))
	} else if *machine >= 0 {
		log.Fatal("-machine requires -addrs")
	} else if *chaosSpec != "" {
		log.Fatal("-chaos requires a distributed run (-machine/-addrs)")
	}

	// Every agent must build the identical graph: fixed seed, fixed
	// shapes (see parallax.DistConfig and internal/jobspec).
	g := spec.Graph()
	resources := spec.Resources()
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
	fmt.Printf("local workers: %v of %d\n", sess.LocalWorkers(), sess.Workers())
	if *resume {
		fmt.Printf("resumed from %s at step %d\n", *ckpt, sess.StepCount())
	}
	if *autoCkpt != "" && sess.StepCount() > 0 {
		fmt.Printf("auto-resumed from %s at step %d (epoch %d)\n", *autoCkpt, sess.StepCount(), sess.Epoch())
	}
	fmt.Println()

	// One identically seeded stream per agent: the session draws every
	// worker's shard from it (skipping the shards remote agents consume),
	// so batches align across processes with zero data traffic — and a
	// resumed session fast-forwards it to the checkpointed cursor.
	ds := spec.Dataset()
	if sess.StepCount() >= spec.Steps {
		// The checkpoint already covers the requested horizon: re-saving
		// the untouched state is fine, training past it is not.
		fmt.Printf("nothing to do: checkpoint at step %d >= -steps %d\n", sess.StepCount(), spec.Steps)
		return
	}
	var stats parallax.LoopStats
	interrupted, left := false, false
	for st, err := range sess.Steps(ctx, ds) {
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted = true
				break
			}
			if errors.Is(err, parallax.ErrLeft) {
				left = true
				break
			}
			log.Fatal(err)
		}
		stats.Observe(st)
		if st.Step%10 == 0 || st.Step == spec.Steps-1 {
			fmt.Printf("step %4d  loss %.6f  (%v, wire tx %d KB rx %d KB)\n",
				st.Step, st.Loss, st.StepTime.Round(10*time.Microsecond),
				st.WireSentBytes/1024, st.WireRecvBytes/1024)
		}
		if *leaveAt >= 0 && st.Step == *leaveAt {
			if err := sess.Leave(); err != nil {
				log.Fatalf("leave: %v", err)
			}
		}
		if st.Step >= spec.Steps-1 {
			break
		}
	}
	if left {
		// A voluntary departure is a clean shutdown: the survivors own the
		// resharded state from here.
		fmt.Printf("left the cluster cleanly after step %d\n", sess.StepCount())
		return
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
	if sess.Recoveries() > 0 {
		// Recovery timings ride the CI artifact (recovery.txt).
		fmt.Printf("recoveries %d  epoch %d  last recovery %v\n",
			sess.Recoveries(), sess.Epoch(), sess.LastRecoveryDuration().Round(time.Millisecond))
	}
	fmt.Printf("\n%s\n", stats)
	if spec.Partitions == 0 {
		// The settled decision: which P the search chose, from which
		// sampled bracket, and where the rows now live.
		fmt.Print(sess.PartitionDecision())
		fmt.Print(sess.ShardMap())
	}
	// The bit pattern is the cross-process equivalence check: a TCP run's
	// final loss must equal the in-process reference exactly — with
	// -partitions 0 too (resharding is lossless), and across a
	// checkpoint/resume split (restore is bit-identical).
	fmt.Printf("final loss bits=%016x loss=%.17g\n", math.Float64bits(stats.LastLoss), stats.LastLoss)
}
