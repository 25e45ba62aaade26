package metrics

import (
	"fmt"
	"time"
)

// StepStats is one training step's measurements, emitted by the persistent
// runtime's step loop for every iteration: the quantities the paper's
// evaluation tracks per step (loss curves in Fig. 7, step time behind the
// throughput tables, network transfer in Table 3).
type StepStats struct {
	// Step is the zero-based iteration number.
	Step int
	// Loss is the mean loss across workers.
	Loss float64
	// StepTime is the wall-clock duration of the synchronous step.
	StepTime time.Duration
	// BytesPushed counts the gradient payload bytes all workers handed to
	// the synchronization layer (ring collectives + parameter servers)
	// during the step.
	BytesPushed int64

	// WireSentBytes / WireRecvBytes count the framed bytes this process
	// actually moved over the wire transport during the step (zero for
	// single-process runs over the in-memory fabric; socket bytes for
	// multi-agent runs over transport.TCP, including serving traffic for
	// remote workers).
	WireSentBytes int64
	WireRecvBytes int64

	// WireSentBytesRaw / WireCompressedBytes break down the compressed
	// share of WireSentBytes under a wire-compression policy (DESIGN.md
	// §11): for every frame that traveled in a compressed encoding, Raw
	// accumulates what the classic f32 frame would have cost and
	// Compressed the bytes actually written. Both are zero for
	// uncompressed runs and for the in-memory fabric.
	WireSentBytesRaw    int64
	WireCompressedBytes int64

	// Per-phase breakdown (slowest worker per phase): ComputeTime is the
	// forward+backward wall clock, CommTime is synchronization busy time,
	// and SyncWait is the part of CommTime that was NOT hidden under
	// compute — the parameter-server pull at the head of the step plus
	// the drain the worker paid after its backward pass finished.
	// CommTime−SyncWait is the overlap the fused schedule won.
	ComputeTime time.Duration
	CommTime    time.Duration
	SyncWait    time.Duration

	// Epoch is the fabric generation the step ran at: 0 until a failure
	// recovery, epoch+1 after each re-rendezvous (DESIGN.md §12).
	// RecoveryCount is the number of in-place recoveries the session has
	// performed so far. Both stay zero in single-process runs and in
	// distributed runs that never lost a peer.
	Epoch         int
	RecoveryCount int
}

// OverlapFraction is the share of synchronization time hidden under
// backward compute, in [0,1]; 0 when the step did no synchronization.
func (s StepStats) OverlapFraction() float64 {
	return overlapFraction(s.CommTime, s.SyncWait)
}

// CompressionRatio returns raw/compressed over the frames that traveled
// compressed this step — the payload reduction the wire-compression
// policy achieved — or 0 when nothing traveled compressed.
func (s StepStats) CompressionRatio() float64 {
	return compressionRatio(s.WireSentBytesRaw, s.WireCompressedBytes)
}

func compressionRatio(raw, comp int64) float64 {
	if comp <= 0 {
		return 0
	}
	return float64(raw) / float64(comp)
}

func overlapFraction(comm, wait time.Duration) float64 {
	if comm <= 0 {
		return 0
	}
	f := 1 - float64(wait)/float64(comm)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// LoopStats aggregates StepStats over a training loop.
type LoopStats struct {
	// Steps is the number of observed steps.
	Steps int
	// FirstLoss and LastLoss bracket the loss trajectory; MeanLoss
	// averages it.
	FirstLoss, LastLoss, MeanLoss float64
	// TotalTime is the summed step wall-clock time.
	TotalTime time.Duration
	// TotalBytesPushed sums the per-step gradient traffic.
	TotalBytesPushed int64
	// TotalWireSent/TotalWireRecv sum the per-step wire bytes this
	// process exchanged with peer agents (zero for single-process runs).
	TotalWireSent int64
	TotalWireRecv int64
	// TotalWireRaw/TotalWireCompressed sum the per-step compression
	// accounting (see StepStats.WireSentBytesRaw).
	TotalWireRaw        int64
	TotalWireCompressed int64
	// TotalCompute/TotalComm/TotalSyncWait sum the per-step phase
	// breakdowns.
	TotalCompute  time.Duration
	TotalComm     time.Duration
	TotalSyncWait time.Duration

	lossSum float64
}

// OverlapFraction is the loop-wide share of synchronization time hidden
// under backward compute.
func (l LoopStats) OverlapFraction() float64 {
	return overlapFraction(l.TotalComm, l.TotalSyncWait)
}

// Observe folds one step's stats into the aggregate.
func (l *LoopStats) Observe(s StepStats) {
	if l.Steps == 0 {
		l.FirstLoss = s.Loss
	}
	l.Steps++
	l.LastLoss = s.Loss
	l.lossSum += s.Loss
	l.MeanLoss = l.lossSum / float64(l.Steps)
	l.TotalTime += s.StepTime
	l.TotalBytesPushed += s.BytesPushed
	l.TotalWireSent += s.WireSentBytes
	l.TotalWireRecv += s.WireRecvBytes
	l.TotalWireRaw += s.WireSentBytesRaw
	l.TotalWireCompressed += s.WireCompressedBytes
	l.TotalCompute += s.ComputeTime
	l.TotalComm += s.CommTime
	l.TotalSyncWait += s.SyncWait
}

// StepsPerSec returns the observed step throughput.
func (l LoopStats) StepsPerSec() float64 {
	if l.TotalTime <= 0 {
		return 0
	}
	return float64(l.Steps) / l.TotalTime.Seconds()
}

// String renders a one-line summary; wire traffic appears only when the
// run actually crossed a wire.
func (l LoopStats) String() string {
	s := fmt.Sprintf("%d steps in %v (%s steps/s), loss %.4f -> %.4f, pushed %s, %.0f%% comm overlapped",
		l.Steps, l.TotalTime.Round(time.Millisecond), Humanize(l.StepsPerSec()),
		l.FirstLoss, l.LastLoss, HumanBytes(float64(l.TotalBytesPushed)),
		100*l.OverlapFraction())
	if l.TotalWireSent > 0 || l.TotalWireRecv > 0 {
		s += fmt.Sprintf(", wire tx %s rx %s",
			HumanBytes(float64(l.TotalWireSent)), HumanBytes(float64(l.TotalWireRecv)))
	}
	if r := l.CompressionRatio(); r > 0 {
		s += fmt.Sprintf(", compressed %.1fx", r)
	}
	return s
}

// CompressionRatio is the loop-wide payload reduction over compressed
// frames (0 when nothing traveled compressed).
func (l LoopStats) CompressionRatio() float64 {
	return compressionRatio(l.TotalWireRaw, l.TotalWireCompressed)
}
