package parallax

// Membership proposal codes (DESIGN.md §14). Every elastic agent
// contributes one code per step boundary as the payload of the
// boundary's control word (session.go): 0 when it has nothing to
// propose, otherwise an encoding of (proposing machine, change kind).
// The cluster-wide maximum elects a single winner deterministically on
// every agent:
//
//   - a higher machine index always beats a lower one (ties are
//     impossible — one machine makes at most one proposal per round);
//   - for the same machine, a leave beats a join (a machine on its way
//     out must not adopt a joiner it won't be around to serve).
//
// The code carries only the winner's identity; the full member list it
// proposes travels through a membership record the proposer wrote to
// the checkpoint root before the round (checkpoint.WriteMembershipRecord),
// so the agreement stays a plain scalar fold and losing proposals leave
// no trace.

import (
	"errors"
	"fmt"

	"parallax/internal/transport"
)

// Membership change kinds, chosen so leave > join within one machine's
// code range.
const (
	proposeJoin  = 1
	proposeLeave = 2
)

// proposalCode encodes a machine's proposal as a positive scalar for
// the max-fold; 0 is reserved for "no proposal".
func proposalCode(machine, kind int) float64 {
	return float64(4*(machine+1) + kind)
}

// decodeProposal inverts proposalCode, rejecting scalars no agent can
// have produced (a corrupt fold would otherwise reshard the cluster
// onto garbage).
func decodeProposal(code float64) (machine, kind int, err error) {
	c := int(code)
	if float64(c) != code || c < 4+proposeJoin {
		return 0, 0, fmt.Errorf("not a proposal code")
	}
	kind = c % 4
	if kind != proposeJoin && kind != proposeLeave {
		return 0, 0, fmt.Errorf("bad proposal kind %d", kind)
	}
	return c/4 - 1, kind, nil
}

// admitMember appends a joiner to a member list, copying — proposal
// records must not alias the live list.
func admitMember(members []transport.Member, m transport.Member) []transport.Member {
	out := make([]transport.Member, 0, len(members)+1)
	out = append(out, members...)
	return append(out, m)
}

// removeMember drops the member at the given index, copying.
func removeMember(members []transport.Member, machine int) []transport.Member {
	out := make([]transport.Member, 0, len(members)-1)
	out = append(out, members[:machine]...)
	return append(out, members[machine:][1:]...)
}

// peerFailureOf extracts the rank-attributed failure from an error
// chain, nil when there is none.
func peerFailureOf(err error) *PeerFailure {
	var pf *PeerFailure
	if errors.As(err, &pf) {
		return pf
	}
	return nil
}
