// Package cluster describes the training cluster: which machines exist,
// which GPUs they carry, and the calibrated hardware constants the
// discrete-event simulation uses for compute and communication costs.
//
// The paper's testbed (§6.1): 8 machines, each with two 18-core Xeon
// E5-2695 CPUs, 256 GB RAM and 6 TITAN Xp GPUs, connected by 100 Gbps
// InfiniBand, running NCCL v2.1 for AllReduce and OpenMPI v3.0.0 for
// AllGatherv. DefaultHardware encodes that testbed.
package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// Machine identifies one host and its GPUs.
type Machine struct {
	Host string
	GPUs []int // device ordinals on the host
}

// ResourceInfo is the cluster description a user hands to the runner, the
// Go analogue of Parallax's resource_info_file (Fig. 3).
type ResourceInfo struct {
	Machines []Machine
}

// Uniform returns a cluster of n identical machines with g GPUs each,
// named m0..m{n-1}.
func Uniform(n, g int) ResourceInfo {
	ms := make([]Machine, n)
	for i := range ms {
		gpus := make([]int, g)
		for j := range gpus {
			gpus[j] = j
		}
		ms[i] = Machine{Host: fmt.Sprintf("m%d", i), GPUs: gpus}
	}
	return ResourceInfo{Machines: ms}
}

// Parse reads a resource file in "host:gpu,gpu,..." line format, e.g.
//
//	node-0:0,1,2,3,4,5
//	node-1:0,1,2,3,4,5
//
// Blank lines and lines starting with '#' are ignored.
func Parse(text string) (ResourceInfo, error) {
	var ri ResourceInfo
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		host, gpuList, ok := strings.Cut(line, ":")
		if !ok {
			return ResourceInfo{}, fmt.Errorf("cluster: line %d: want host:gpus, got %q", ln+1, line)
		}
		host = strings.TrimSpace(host)
		if host == "" {
			return ResourceInfo{}, fmt.Errorf("cluster: line %d: empty host", ln+1)
		}
		var gpus []int
		for _, f := range strings.Split(gpuList, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			id, err := strconv.Atoi(f)
			if err != nil || id < 0 {
				return ResourceInfo{}, fmt.Errorf("cluster: line %d: bad GPU id %q", ln+1, f)
			}
			gpus = append(gpus, id)
		}
		if len(gpus) == 0 {
			return ResourceInfo{}, fmt.Errorf("cluster: line %d: host %s has no GPUs", ln+1, host)
		}
		ri.Machines = append(ri.Machines, Machine{Host: host, GPUs: gpus})
	}
	if len(ri.Machines) == 0 {
		return ResourceInfo{}, fmt.Errorf("cluster: no machines in resource info")
	}
	return ri, nil
}

// NumMachines returns the machine count.
func (r ResourceInfo) NumMachines() int { return len(r.Machines) }

// TotalGPUs returns the total GPU (worker) count.
func (r ResourceInfo) TotalGPUs() int {
	n := 0
	for _, m := range r.Machines {
		n += len(m.GPUs)
	}
	return n
}

// GPUsPerMachine returns the GPU count of machine i.
func (r ResourceInfo) GPUsPerMachine(i int) int { return len(r.Machines[i].GPUs) }

// Validate checks the resource info is non-empty and GPU ids are unique per
// host.
func (r ResourceInfo) Validate() error {
	if len(r.Machines) == 0 {
		return fmt.Errorf("cluster: empty resource info")
	}
	hosts := make(map[string]bool, len(r.Machines))
	for _, m := range r.Machines {
		if hosts[m.Host] {
			return fmt.Errorf("cluster: duplicate host %q", m.Host)
		}
		hosts[m.Host] = true
		if len(m.GPUs) == 0 {
			return fmt.Errorf("cluster: host %q has no GPUs", m.Host)
		}
		seen := make(map[int]bool, len(m.GPUs))
		for _, g := range m.GPUs {
			if seen[g] {
				return fmt.Errorf("cluster: host %q lists GPU %d twice", m.Host, g)
			}
			seen[g] = true
		}
	}
	return nil
}

// WorkerMachines returns the machine index of every global worker rank,
// the worker→machine map the transport topology is built from: ranks
// are machine-major, machine m's GPUs numbered after machine m-1's. It
// is the rank layout used by all runtimes.
func (r ResourceInfo) WorkerMachines() []int {
	out := make([]int, 0, r.TotalGPUs())
	for m, machine := range r.Machines {
		for range machine.GPUs {
			out = append(out, m)
		}
	}
	return out
}

// MachineOfWorker returns the machine index hosting global worker rank w.
func (r ResourceInfo) MachineOfWorker(w int) int {
	for i, m := range r.Machines {
		if w < len(m.GPUs) {
			return i
		}
		w -= len(m.GPUs)
	}
	panic(fmt.Sprintf("cluster: worker rank %d out of range", w))
}
