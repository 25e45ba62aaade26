package parallax

import "parallax/internal/errs"

// Sentinel errors of the public API. Every error the runtime returns
// for one of these conditions wraps the corresponding sentinel, so
// callers branch with errors.Is instead of matching message strings:
//
//	if errors.Is(err, parallax.ErrTopologyMismatch) { ... }
var (
	// ErrClosed marks an operation against a closed Session: stepping,
	// saving, or resharding after Close — or after a rebuild (recovery,
	// membership transition, Resize) that failed once the previous
	// runtime was torn down. It also surfaces when
	// the wire transport shuts down underneath an in-flight
	// parameter-server call.
	ErrClosed = errs.ErrClosed

	// ErrTopologyMismatch marks a disagreement between two descriptions
	// of the cluster that must be identical: a transport fabric whose
	// endpoint layout differs from the resource specification, or a
	// checkpoint whose topology or plan fingerprint does not match the
	// session being restored (different machine/GPU layout, different
	// variables, different partitioning).
	ErrTopologyMismatch = errs.ErrTopologyMismatch

	// ErrCheckpointVersion marks a checkpoint file whose magic bytes or
	// format version this build cannot read.
	ErrCheckpointVersion = errs.ErrCheckpointVersion

	// ErrCompressionMismatch marks a disagreement over the wire
	// compression policy: a distributed peer configured with a different
	// policy (caught at the TCP rendezvous), or a checkpoint restored
	// under a policy other than the one that wrote it.
	ErrCompressionMismatch = errs.ErrCompressionMismatch

	// ErrPeerFailed marks the death of a peer agent: a heartbeat timeout,
	// a broken connection, or a peer-down notification relayed by another
	// survivor. The chain usually carries a *PeerFailure with the failed
	// rank and fabric epoch:
	//
	//	var pf *parallax.PeerFailure
	//	if errors.As(err, &pf) { log.Printf("rank %d died", pf.Rank) }
	//
	// With WithRecovery and WithAutoCheckpoint configured, the Steps loop
	// recovers from this condition instead of surfacing it.
	ErrPeerFailed = errs.ErrPeerFailed

	// ErrEpochMismatch marks a rendezvous between agents that disagree
	// about the fabric generation — one side recovered into a newer epoch
	// while the other still carries a stale one. The stale side re-reads
	// the epoch record in the auto-checkpoint directory and retries.
	ErrEpochMismatch = errs.ErrEpochMismatch

	// ErrLeft marks this agent's clean voluntary departure from an
	// elastic cluster (Session.Leave): survivors agreed on a membership
	// without this machine and resharded its parameter-server state, and
	// the session closed itself. Steps returns an error wrapping ErrLeft
	// exactly once; treat it as a normal shutdown, not a failure.
	ErrLeft = errs.ErrLeft
)

// PeerFailure is the rank-attributed failure record produced by the
// transport when a peer agent dies. It matches ErrPeerFailed under
// errors.Is and unwraps to the raw symptom (EOF, heartbeat timeout).
type PeerFailure = errs.PeerFailure
