package parallax

// Functional options for Open / OpenFromCheckpoint. Each option sets
// one facet of the job configuration; the zero configuration (no
// options) is the paper's sensible default — hybrid architecture, SGD
// with learning rate 0.1, mean aggregation, local aggregation on, and
// the partition search on the live runtime.
//
// The options compose left to right, so later options win.

import "time"

// Option configures a Session being opened.
type Option func(*Config)

// resolveConfig folds the options into a Config and resolves every
// documented default, so no use site carries a fallback of its own.
func resolveConfig(opts []Option) Config {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.NewOptimizer == nil {
		cfg.NewOptimizer = func() Optimizer { return NewSGD(0.1) }
	}
	if cfg.AutoCheckpoint.EveryN <= 0 {
		cfg.AutoCheckpoint.EveryN = 10
	}
	if cfg.AutoCheckpoint.Keep <= 0 {
		cfg.AutoCheckpoint.Keep = 3
	}
	if cfg.Recovery.MaxRecoveries <= 0 {
		cfg.Recovery.MaxRecoveries = 3
	}
	if cfg.Recovery.RedialTimeout <= 0 {
		cfg.Recovery.RedialTimeout = 2 * time.Minute
	}
	if cfg.Dist != nil {
		dc := *cfg.Dist // the option's struct may be shared across Opens
		if dc.DialTimeout <= 0 {
			dc.DialTimeout = 10 * time.Second
			if dc.JoinAddr != "" {
				// A joiner waits for a step boundary to admit it — the same
				// kind of wait as a re-rendezvous.
				dc.DialTimeout = cfg.Recovery.RedialTimeout
			}
		}
		cfg.Dist = &dc
	}
	return cfg
}

// WithArch selects the training architecture (default Hybrid).
func WithArch(a Arch) Option { return func(c *Config) { c.Arch = a } }

// WithOptimizer sets the optimizer constructor (one instance per
// replica and one per server; default SGD with learning rate 0.1).
func WithOptimizer(newOptimizer func() Optimizer) Option {
	return func(c *Config) { c.NewOptimizer = newOptimizer }
}

// WithAggregation chooses mean or sum aggregation per gradient type
// (§4.1; default mean for both).
func WithAggregation(dense, sparse AggMethod) Option {
	return func(c *Config) { c.DenseAgg, c.SparseAgg = dense, sparse }
}

// WithSparsePartitions fixes the sparse-variable partition count; 0
// (the default) lets the first step loop search for it on the live
// runtime (see Config.SparsePartitions).
func WithSparsePartitions(p int) Option {
	return func(c *Config) { c.SparsePartitions = p }
}

// WithAlphaHints supplies per-variable sparsity estimates, used only by
// the α-threshold rule (WithAlphaDenseThreshold; see MeasureAlpha).
func WithAlphaHints(hints map[string]float64) Option {
	return func(c *Config) { c.AlphaHint = hints }
}

// WithAlphaDenseThreshold promotes sparse variables with α at or above
// the threshold to dense AllReduce treatment (§3.1; 0 disables).
func WithAlphaDenseThreshold(threshold float64) Option {
	return func(c *Config) { c.AlphaDenseThreshold = threshold }
}

// WithClipNorm enables global-norm gradient clipping via the
// chief-worker aggregated-gradient read-back (§5).
func WithClipNorm(norm float64) Option { return func(c *Config) { c.ClipNorm = norm } }

// WithFusionBytes caps one dense-AllReduce fusion bucket (0 selects the
// 4 MiB default, negative disables fusion; results are bit-identical
// either way).
func WithFusionBytes(n int64) Option { return func(c *Config) { c.FusionBytes = n } }

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

// WithDist places this process as machine `machine` of a multi-process
// cluster: addrs lists one agent address per machine. The rendezvous
// deadline comes from Open's context (tightened by DistConfig's
// DialTimeout, default 10s); use WithDistConfig for the full contract.
func WithDist(machine int, addrs ...string) Option {
	return func(c *Config) { c.Dist = &DistConfig{Machine: machine, Addrs: addrs} }
}

// WithDistConfig places this process in a multi-process cluster with
// full control over the rendezvous (pre-bound listener, dial timeout).
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

// WithResidentPS hosts the session's parameter-server variables on a
// shared long-lived fleet (NewPSFleet) under the given tenant namespace
// (e.g. "tenant/jobID") instead of launching private per-session
// servers — the multi-tenant service mode (DESIGN.md §13). Variables are
// registered namespace-qualified, so concurrent sessions may use
// identical variable names without collision, and the namespace is
// released when the session closes. The namespace must be unique among
// the sessions currently open on the fleet. Resident mode is
// single-process only: it cannot be combined with WithDist.
func WithResidentPS(fleet *PSFleet, namespace string) Option {
	return func(c *Config) { c.ResidentPS, c.PSNamespace = fleet, namespace }
}

// WithElastic enables elastic cluster membership (DESIGN.md §14): new
// agents join the running cluster with DistConfig.JoinAddr, members
// depart voluntarily with Session.Leave, and — with
// RecoveryPolicy.AllowShrink — the cluster sheds a dead machine instead
// of waiting for its restart. Transitions happen at step boundaries and
// move state through the auto-checkpoint root, so WithAutoCheckpoint is
// required. WithElastic also unlocks cross-topology restores: a
// checkpoint written at one machine count opens at another through the
// resharding path (without it, OpenFromCheckpoint hard-rejects the
// mismatch with ErrTopologyMismatch).
func WithElastic() Option { return func(c *Config) { c.Elastic = true } }

// WithRecovery installs the failure-recovery policy (DESIGN.md §12):
// with policy.Enabled, a distributed session survives a peer agent's
// death by re-rendezvousing at the next fabric epoch and restoring the
// latest complete auto-checkpoint — the Steps iterator continues
// bit-identically instead of yielding ErrPeerFailed. Steps recovers in
// place (it keeps the feed log the replay draws from); StepsFeeds owns
// its feed source and surfaces ErrPeerFailed. Requires
// WithAutoCheckpoint. WithRecovery(RecoveryPolicy{Enabled: true})
// selects the defaults (3 recoveries, 2-minute redial window).
func WithRecovery(policy RecoveryPolicy) Option {
	return func(c *Config) { c.Recovery = policy }
}
