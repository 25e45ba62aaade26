package cluster

import (
	"strings"
	"testing"
)

func TestUniform(t *testing.T) {
	r := Uniform(8, 6)
	if r.NumMachines() != 8 || r.TotalGPUs() != 48 {
		t.Fatalf("machines=%d gpus=%d", r.NumMachines(), r.TotalGPUs())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseValid(t *testing.T) {
	r, err := Parse("# comment\nnode-0: 0,1,2\n\nnode-1:3 ,4\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumMachines() != 2 || r.TotalGPUs() != 5 {
		t.Fatalf("machines=%d gpus=%d", r.NumMachines(), r.TotalGPUs())
	}
	if r.Machines[0].Host != "node-0" || len(r.Machines[0].GPUs) != 3 {
		t.Fatalf("machine 0 = %+v", r.Machines[0])
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"hostonly",
		"host:",
		"host:a,b",
		"host:-1",
		":0,1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	r := ResourceInfo{Machines: []Machine{
		{Host: "a", GPUs: []int{0}},
		{Host: "a", GPUs: []int{0}},
	}}
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate host") {
		t.Fatalf("err = %v", err)
	}
	r2 := ResourceInfo{Machines: []Machine{{Host: "a", GPUs: []int{0, 0}}}}
	if err := r2.Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkerRankMapping(t *testing.T) {
	r := Uniform(3, 4)
	machines := r.WorkerMachines()
	if len(machines) != 12 {
		t.Fatalf("WorkerMachines has %d ranks, want 12", len(machines))
	}
	for w := 0; w < 12; w++ {
		if got, want := r.MachineOfWorker(w), w/4; got != want || machines[w] != want {
			t.Fatalf("worker %d: MachineOfWorker %d, WorkerMachines %d, want %d", w, got, machines[w], want)
		}
	}
}

func TestDefaultHardwareSane(t *testing.T) {
	h := DefaultHardware()
	if h.NICBandwidth != 12.5e9 {
		t.Fatalf("NIC bandwidth = %v, want 12.5e9 (100 Gbps)", h.NICBandwidth)
	}
	// NCCL must be charged faster than RPC, RPC faster or equal to MPI:
	// this ordering is what drives "AR wins dense, PS wins sparse".
	if !(h.Bandwidth(ProtoNCCL) > h.Bandwidth(ProtoRPC)) {
		t.Fatal("NCCL must beat RPC bandwidth")
	}
	if !(h.Bandwidth(ProtoRPC) >= h.Bandwidth(ProtoMPI)) {
		t.Fatal("RPC must be >= MPI bandwidth")
	}
	if h.Bandwidth(Protocol(99)) != h.NICBandwidth {
		t.Fatal("unknown protocol should default to line rate")
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoNCCL.String() != "nccl" || ProtoRPC.String() != "rpc" || ProtoMPI.String() != "mpi" {
		t.Fatal("bad protocol names")
	}
	if Protocol(42).String() != "unknown" {
		t.Fatal("bad unknown name")
	}
}
