package parallax

// Property tests for the membership state machine (DESIGN.md §14): the
// proposal encoding round-trips, the scalar fold (slices.Max, the fold
// transform.Trainer.AgreeMax runs) is order-independent, and simulated
// agents driven through seeded random admission/departure orderings
// converge on the same epoch, world size, and member list — no
// split-brain under any observation order.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parallax/internal/checkpoint"
	"parallax/internal/transport"
)

func TestProposalCodeRoundTrip(t *testing.T) {
	for machine := 0; machine < 64; machine++ {
		for _, kind := range []int{proposeJoin, proposeLeave} {
			code := proposalCode(machine, kind)
			if code <= 0 {
				t.Fatalf("code(%d,%d) = %v, want positive", machine, kind, code)
			}
			m, k, err := decodeProposal(code)
			if err != nil || m != machine || k != kind {
				t.Fatalf("decode(code(%d,%d)) = (%d,%d,%v)", machine, kind, m, k, err)
			}
		}
	}
	for _, bad := range []float64{-1, 0, 1, 4, 4.5, 7, 8, 12, proposalCode(3, proposeJoin) + 0.25} {
		if _, _, err := decodeProposal(bad); err == nil {
			t.Fatalf("decodeProposal(%v) accepted", bad)
		}
	}
}

// TestProposalPrecedence pins the two ordering rules the fold relies
// on: higher machines beat lower ones, and a machine's leave beats its
// own join.
func TestProposalPrecedence(t *testing.T) {
	if proposalCode(1, proposeJoin) <= proposalCode(0, proposeLeave) {
		t.Fatal("machine 1's join must outrank machine 0's leave")
	}
	if proposalCode(2, proposeLeave) <= proposalCode(2, proposeJoin) {
		t.Fatal("a machine's leave must outrank its own join")
	}
}

// memberState is one simulated agent's view of the cluster.
type memberState struct {
	epoch   int
	members []transport.Member
}

func (st *memberState) topoFP() string {
	m := &transport.Membership{Epoch: st.epoch, Parts: 1, Joiner: -1, Members: st.members}
	return checkpoint.TopoFingerprint(resourceFromMembers(m))
}

// applyWinner advances one agent's state by the elected proposal,
// exactly as transition does: read the winner's proposed list, adopt
// it, bump the epoch.
func (st *memberState) applyWinner(winner, kind int, t *testing.T) {
	t.Helper()
	if winner < 0 || winner >= len(st.members) {
		t.Fatalf("winner %d outside %d members", winner, len(st.members))
	}
	switch kind {
	case proposeJoin:
		st.members = admitMember(st.members, transport.Member{
			Addr: fmt.Sprintf("joiner-e%d:%d", st.epoch+1, winner), GPUs: 2,
		})
	case proposeLeave:
		st.members = removeMember(st.members, winner)
	default:
		t.Fatalf("bad kind %d", kind)
	}
	st.epoch++
}

// TestMembershipConvergesUnderRandomOrderings drives N simulated agents
// through R rounds of randomized concurrent proposals. Each agent
// observes the round's proposal codes in its own seeded shuffle; the
// fold must elect the same winner regardless, and after applying it
// every agent must hold the identical epoch, world size, member list,
// and topology fingerprint.
func TestMembershipConvergesUnderRandomOrderings(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			start := []transport.Member{
				{Addr: "a0:1", GPUs: 2}, {Addr: "a1:1", GPUs: 2}, {Addr: "a2:1", GPUs: 2},
			}
			agents := make([]*memberState, 3)
			for i := range agents {
				agents[i] = &memberState{members: append([]transport.Member(nil), start...)}
			}
			for round := 0; round < 40; round++ {
				n := len(agents[0].members)
				// Random subset of machines proposes this round; leaves are
				// only legal while a second member remains.
				var codes []float64
				for m := 0; m < n; m++ {
					switch rng.Intn(4) {
					case 0:
						codes = append(codes, proposalCode(m, proposeJoin))
					case 1:
						if n > 1 {
							codes = append(codes, proposalCode(m, proposeLeave))
						}
					}
				}
				for len(codes) < n {
					codes = append(codes, 0) // silent agents contribute 0
				}
				// Every agent folds its own shuffle of the same multiset.
				winners := make([]float64, len(agents))
				for i := range agents {
					shuffled := append([]float64(nil), codes...)
					rng.Shuffle(len(shuffled), func(a, b int) {
						shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
					})
					winners[i] = slices.Max(shuffled)
				}
				for i := 1; i < len(winners); i++ {
					if winners[i] != winners[0] {
						t.Fatalf("round %d: agent %d folded %v, agent 0 folded %v (split-brain)",
							round, i, winners[i], winners[0])
					}
				}
				if winners[0] == 0 {
					continue
				}
				winner, kind, err := decodeProposal(winners[0])
				if err != nil {
					t.Fatalf("round %d: elected code %v does not decode: %v", round, winners[0], err)
				}
				for _, a := range agents {
					a.applyWinner(winner, kind, t)
				}
				// Convergence invariants after every transition.
				ref := agents[0]
				if len(ref.members) < 1 {
					t.Fatalf("round %d: cluster emptied", round)
				}
				seen := map[string]bool{}
				for _, m := range ref.members {
					if seen[m.Addr] {
						t.Fatalf("round %d: duplicate member %q", round, m.Addr)
					}
					seen[m.Addr] = true
				}
				for i, a := range agents[1:] {
					if a.epoch != ref.epoch || len(a.members) != len(ref.members) {
						t.Fatalf("round %d: agent %d at epoch %d/%d members, agent 0 at %d/%d",
							round, i+1, a.epoch, len(a.members), ref.epoch, len(ref.members))
					}
					for j := range a.members {
						if a.members[j] != ref.members[j] {
							t.Fatalf("round %d: agent %d member %d = %+v, agent 0 has %+v",
								round, i+1, j, a.members[j], ref.members[j])
						}
					}
					if a.topoFP() != ref.topoFP() {
						t.Fatalf("round %d: topology fingerprints diverged", round)
					}
				}
			}
		})
	}
}

// TestMembershipLeaveBeatsJoinSameMachine: when one machine both hosts
// a parked joiner and wants to leave, the departure wins — a leaving
// machine must not admit a joiner it won't be around to serve.
func TestMembershipLeaveBeatsJoinSameMachine(t *testing.T) {
	got := slices.Max([]float64{
		proposalCode(1, proposeJoin),
		proposalCode(1, proposeLeave),
		0,
	})
	m, k, err := decodeProposal(got)
	if err != nil || m != 1 || k != proposeLeave {
		t.Fatalf("fold elected (%d,%d,%v), want machine 1 leave", m, k, err)
	}
}

// TestControlWordStopOutranksEveryProposal pins the one-exchange
// boundary's fold (session.go): the stop flag sits above every proposal
// code, so the max-fold of the control words is the OR of the stop
// requests, and — only when nobody stops — the proposal election.
func TestControlWordStopOutranksEveryProposal(t *testing.T) {
	top := proposalCode(1<<20, proposeLeave) // far beyond any real cluster
	if top >= ctlStop {
		t.Fatalf("proposal code %v reaches the stop flag %v", top, float64(ctlStop))
	}
	if word := ctlStop + top; word-ctlStop != top {
		t.Fatal("stop flag plus a proposal code is not an exact float64 integer")
	}
	if got := slices.Max([]float64{top, ctlStop, 0}); got < ctlStop {
		t.Fatalf("fold of a stop and a proposal = %v, want the stop to win", got)
	}
	if got := slices.Max([]float64{proposalCode(0, proposeJoin), 0, proposalCode(2, proposeLeave)}); got >= ctlStop {
		t.Fatalf("fold of proposals alone = %v reads as a stop", got)
	}
}
