// Package chaos is the deterministic fault-injection harness for the
// failure-recovery protocol (DESIGN.md §12). It injects faults into a
// transport.Fabric at exact step boundaries, driven by a compact spec
// string — so a CI round can kill an agent at step 17, watch the
// cluster re-rendezvous at epoch+1, and assert the final loss bits
// equal an uninterrupted reference run.
//
// Faults are step-indexed, never timer-driven: the session calls Step
// with each step index and its live fabric before the step's first
// exchange, and the injector fires exactly there. Two runs with the
// same spec and seed inject byte-identical fault schedules.
//
// Spec grammar (comma-separated faults):
//
//	kill@K          tear this process's fabric down at step K, as if the
//	                process crashed (no announcement; peers attribute the
//	                failure via broken connections). The process itself
//	                observes ErrPeerFailed for its own rank and can
//	                recover in place — a crash plus instant restart.
//	sever@K:P       close only the connection to peer process P at step K
//	crash@K         hard-exit the process (status 137) at step K
//	crash-before-save@K   hard-exit just before writing the
//	                auto-checkpoint at step K
//	crash-after-save@K    hard-exit just after writing it
//	delay@K:D       sleep duration D once, before step K (e.g. 50ms)
//	slow@K:D        from step K on, sleep a seed-jittered duration around
//	                D before every step (slow-peer throttling)
//	join@K          fire the OnJoin hook once at step K — the harness's
//	                cue to launch a joining agent against the elastic
//	                cluster (DESIGN.md §14)
//	leave@K:P       fire the OnLeave hook once at step K with machine P:
//	                the session requests a voluntary departure for P when
//	                P is the machine it hosts
//
// The injector is created once per process and survives fabric
// rebuilds: after an in-place recovery the session hands the same
// injector the fresh fabric, so a fault that already fired does not
// fire again when the replayed steps pass its index a second time.
package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"parallax/internal/transport"
)

// Kinds of injectable faults.
const (
	faultKill = iota
	faultSever
	faultCrash
	faultCrashBeforeSave
	faultCrashAfterSave
	faultDelay
	faultSlow
	faultJoin
	faultLeave
)

// Fault is one scheduled fault.
type Fault struct {
	Kind  int
	Step  int           // step index the fault fires at (slow: fires from here on)
	Peer  int           // sever: peer process to cut
	Delay time.Duration // delay/slow: sleep duration
	fired bool
}

// Injector owns a process's fault schedule. Create one with Parse and
// call Step with every fabric generation; the fired-state carries over
// so replayed steps after a recovery do not re-trigger old faults.
type Injector struct {
	mu     sync.Mutex
	faults []Fault
	rng    *rand.Rand

	// Exit is called for crash faults; overridable in tests. Defaults to
	// os.Exit.
	Exit func(code int)

	// OnJoin receives join@K faults: the elastic-test harness's cue to
	// launch a joining agent. Set before the first step; may be nil.
	OnJoin func(step int)
	// OnLeave receives leave@K:P faults with the target machine; the
	// session's elastic arm turns a hit on its own machine into a
	// voluntary-leave request. Set before the first step; may be nil.
	OnLeave func(step, machine int)
}

// Parse builds an injector from a fault spec. The seed drives the
// jitter of slow-peer throttling; everything else is exact.
func Parse(spec string, seed int64) (*Injector, error) {
	inj := &Injector{rng: rand.New(rand.NewSource(seed)), Exit: os.Exit}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: fault %q missing '@step'", part)
		}
		stepStr, arg, hasArg := strings.Cut(rest, ":")
		step, err := strconv.Atoi(stepStr)
		if err != nil || step < 0 {
			return nil, fmt.Errorf("chaos: fault %q has bad step %q", part, stepStr)
		}
		f := Fault{Step: step}
		switch name {
		case "kill":
			f.Kind = faultKill
		case "join":
			f.Kind = faultJoin
		case "leave":
			f.Kind = faultLeave
			if !hasArg {
				return nil, fmt.Errorf("chaos: leave needs a machine: leave@K:P")
			}
			if f.Peer, err = strconv.Atoi(arg); err != nil || f.Peer < 0 {
				return nil, fmt.Errorf("chaos: leave machine %q", arg)
			}
		case "sever":
			f.Kind = faultSever
			if !hasArg {
				return nil, fmt.Errorf("chaos: sever needs a peer: sever@K:P")
			}
			if f.Peer, err = strconv.Atoi(arg); err != nil || f.Peer < 0 {
				return nil, fmt.Errorf("chaos: sever peer %q", arg)
			}
		case "crash":
			f.Kind = faultCrash
		case "crash-before-save":
			f.Kind = faultCrashBeforeSave
		case "crash-after-save":
			f.Kind = faultCrashAfterSave
		case "delay", "slow":
			if name == "delay" {
				f.Kind = faultDelay
			} else {
				f.Kind = faultSlow
			}
			if !hasArg {
				return nil, fmt.Errorf("chaos: %s needs a duration: %s@K:D", name, name)
			}
			if f.Delay, err = time.ParseDuration(arg); err != nil || f.Delay < 0 {
				return nil, fmt.Errorf("chaos: %s duration %q", name, arg)
			}
		default:
			return nil, fmt.Errorf("chaos: unknown fault %q", name)
		}
		inj.faults = append(inj.faults, f)
	}
	return inj, nil
}

// Step fires every armed fault scheduled at step; the session calls it
// before the step's first exchange. kill and sever act on fab, the
// fabric the step is about to run on.
func (inj *Injector) Step(step int, fab transport.Fabric) {
	inj.mu.Lock()
	var fire []*Fault
	for i := range inj.faults {
		ft := &inj.faults[i]
		switch {
		case ft.Kind == faultSlow:
			if step >= ft.Step {
				fire = append(fire, ft)
			}
		case ft.fired || ft.Step != step:
		case ft.Kind == faultKill || ft.Kind == faultSever ||
			ft.Kind == faultCrash || ft.Kind == faultDelay ||
			ft.Kind == faultJoin || ft.Kind == faultLeave:
			ft.fired = true
			fire = append(fire, ft)
		}
	}
	// Draw slow-peer jitter under the lock so the schedule is a pure
	// function of (spec, seed, step sequence).
	var naps []time.Duration
	for _, ft := range fire {
		switch ft.Kind {
		case faultDelay:
			naps = append(naps, ft.Delay)
		case faultSlow:
			naps = append(naps, time.Duration((0.5+inj.rng.Float64())*float64(ft.Delay)))
		}
	}
	inj.mu.Unlock()

	for _, d := range naps {
		time.Sleep(d)
	}
	for _, ft := range fire {
		switch ft.Kind {
		case faultCrash:
			inj.Exit(137)
		case faultKill:
			kill(fab, step)
		case faultSever:
			if t, ok := fab.(interface{ SeverPeer(int) error }); ok {
				t.SeverPeer(ft.Peer)
			}
		case faultJoin:
			if inj.OnJoin != nil {
				inj.OnJoin(step)
			}
		case faultLeave:
			if inj.OnLeave != nil {
				inj.OnLeave(step, ft.Peer)
			}
		}
	}
}

// kill simulates this process crashing at the given step: the fabric
// tears down abruptly with no peer-down announcement, and the local
// attribution is this process's own rank — matching what every remote
// survivor concludes from the broken connections.
func kill(fab transport.Fabric, step int) {
	self, topo := 0, fab.Topology()
	for p := 0; p < topo.Processes(); p++ {
		if topo.Machines > 0 && fab.Local(topo.ServerEndpoint(p)) {
			self = p
			break
		}
	}
	fab.Fail(self, fmt.Errorf("chaos: injected kill at step %d", step))
}

// BeforeSave fires crash-before-save faults; the session calls it just
// before writing the auto-checkpoint for a step.
func (inj *Injector) BeforeSave(step int) { inj.crashAroundSave(step, faultCrashBeforeSave) }

// AfterSave fires crash-after-save faults; the session calls it right
// after the auto-checkpoint for a step is durably on disk.
func (inj *Injector) AfterSave(step int) { inj.crashAroundSave(step, faultCrashAfterSave) }

func (inj *Injector) crashAroundSave(step, kind int) {
	inj.mu.Lock()
	exit := false
	for i := range inj.faults {
		ft := &inj.faults[i]
		if ft.Kind == kind && ft.Step == step && !ft.fired {
			ft.fired = true
			exit = true
		}
	}
	inj.mu.Unlock()
	if exit {
		inj.Exit(137)
	}
}
