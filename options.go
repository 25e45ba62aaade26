package parallax

// Functional options for Open / OpenFromCheckpoint. Each option sets
// one facet of the job configuration; the zero configuration (no
// options) is the paper's sensible default — hybrid architecture, SGD
// with learning rate 0.1, mean aggregation, local aggregation on, and
// the partition search on the live runtime.
//
// The options compose left to right, so later options win.

import (
	"fmt"
	"time"
)

// Option configures a Session being opened.
type Option func(*Config)

// resolveConfig folds the options into a Config, resolves every
// documented default and refuses every combination the docs forbid, so
// no use site carries a fallback or a re-check of its own.
func resolveConfig(opts []Option) (Config, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	root := cfg.AutoCheckpoint.Dir
	switch {
	case cfg.Recovery.Enabled && root == "":
		return Config{}, fmt.Errorf("parallax: WithRecovery requires WithAutoCheckpoint")
	case cfg.Recovery.Enabled && cfg.Dist == nil:
		return Config{}, fmt.Errorf("parallax: WithRecovery requires WithDistConfig (a single-process session has no peer to lose)")
	case cfg.Recovery.AllowShrink && !cfg.Recovery.Enabled:
		return Config{}, fmt.Errorf("parallax: RecoveryPolicy.AllowShrink requires Enabled")
	case cfg.Dist != nil && cfg.Dist.JoinAddr != "" && !cfg.Elastic:
		return Config{}, fmt.Errorf("parallax: DistConfig.JoinAddr requires WithElastic")
	case cfg.Dist != nil && cfg.Elastic && root == "":
		return Config{}, fmt.Errorf("parallax: WithElastic on a distributed session requires WithAutoCheckpoint on the cluster's shared root")
	}
	if cfg.NewOptimizer == nil {
		cfg.NewOptimizer = func() Optimizer { return NewSGD(0.1) }
	}
	if cfg.AutoCheckpoint.EveryN <= 0 {
		cfg.AutoCheckpoint.EveryN = 10
	}
	if cfg.Dist != nil {
		dc := *cfg.Dist // the option's struct may be shared across Opens
		if dc.DialTimeout <= 0 {
			dc.DialTimeout = 10 * time.Second
			if dc.JoinAddr != "" {
				// A joiner waits for a step boundary to admit it — the same
				// kind of wait as a re-rendezvous.
				dc.DialTimeout = redialTimeout
			}
		}
		cfg.Dist = &dc
	}
	return cfg, nil
}

// WithArch selects the training architecture (default Hybrid).
func WithArch(a Arch) Option { return func(c *Config) { c.Arch = a } }

// WithOptimizer sets the optimizer constructor (one instance per
// replica and one per server; default SGD with learning rate 0.1).
func WithOptimizer(newOptimizer func() Optimizer) Option {
	return func(c *Config) { c.NewOptimizer = newOptimizer }
}

// WithSparsePartitions fixes the sparse-variable partition count; 0
// (the default) lets the first step loop search for it on the live
// runtime (see Config.SparsePartitions).
func WithSparsePartitions(p int) Option {
	return func(c *Config) { c.SparsePartitions = p }
}

// WithClipNorm enables global-norm gradient clipping via the
// chief-worker aggregated-gradient read-back (§5).
func WithClipNorm(norm float64) Option { return func(c *Config) { c.ClipNorm = norm } }

// WithCompression selects the wire-compression policy for the job's
// gradient traffic (DESIGN.md §11): CompressionF16/CompressionBF16 for
// half-precision payloads, CompressionTopK for sparsified dense buckets
// with error feedback, or a hand-built CompressionPolicy. The default
// (CompressionNone) keeps every frame exact f32. The policy is part of
// the job's identity: in distributed mode every agent must configure
// the same policy (the TCP rendezvous verifies this), and a checkpoint
// can only be restored under the policy that wrote it.
func WithCompression(p CompressionPolicy) Option {
	return func(c *Config) { c.Compression = p }
}

// WithDistConfig places this process in a multi-process cluster as
// machine dc.Machine, dc.Addrs listing one agent address per machine, or
// as a joiner (dc.JoinAddr). The rendezvous deadline comes from Open's
// context, tightened by dc.DialTimeout (default 10s).
func WithDistConfig(dc DistConfig) Option {
	return func(c *Config) { c.Dist = &dc }
}

// WithAutoCheckpoint saves the full training state under dir every
// everyN completed steps (everyN <= 0 selects the default of 10). The
// periodic checkpoints are what failure recovery restores from
// (WithRecovery); they also make the session resumable after a crash —
// Open with the same AutoCheckpoint directory restores the latest
// complete one automatically. In distributed mode every agent must use
// the same directory on a shared or replicated filesystem.
func WithAutoCheckpoint(dir string, everyN int) Option {
	return func(c *Config) { c.AutoCheckpoint = AutoCheckpointSpec{Dir: dir, EveryN: everyN} }
}

// WithElastic enables elastic cluster membership (DESIGN.md §14): new
// agents join the running cluster with DistConfig.JoinAddr, members
// depart voluntarily with Session.Leave, and — with
// RecoveryPolicy.AllowShrink — the cluster sheds a dead machine instead
// of waiting for its restart. Transitions happen at step boundaries and
// move state through the auto-checkpoint root, so Open refuses a
// distributed WithElastic without WithAutoCheckpoint. WithElastic also
// unlocks cross-topology restores: a checkpoint written at one machine
// count opens at another through the resharding path (without it,
// OpenFromCheckpoint hard-rejects the mismatch with
// ErrTopologyMismatch).
func WithElastic() Option { return func(c *Config) { c.Elastic = true } }

// WithRecovery installs the failure-recovery policy (DESIGN.md §12):
// with policy.Enabled, a distributed session survives a peer agent's
// death by re-rendezvousing at the next fabric epoch and restoring the
// latest complete auto-checkpoint — the Steps iterator continues
// bit-identically instead of yielding ErrPeerFailed. Steps recovers in
// place (it keeps the feed log the replay draws from); StepsFeeds owns
// its feed source and surfaces ErrPeerFailed. Requires
// WithAutoCheckpoint and WithDistConfig: Open refuses an enabled policy
// without either, so an in-process parallax-agent -recover fails at
// Open.
// Every recovery allows 2 minutes for the re-rendezvous, and a session
// survives at most 3 recoveries.
func WithRecovery(policy RecoveryPolicy) Option {
	return func(c *Config) { c.Recovery = policy }
}
