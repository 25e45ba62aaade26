// Cluster resource inventory for the multi-tenant serving daemon:
// admission control charges every job against it before a Session is
// opened, so concurrent tenants can never oversubscribe the cluster's
// GPUs (DESIGN.md §13). GPUs are exclusive — a job's workers own them
// for its lifetime. PS capacity is not a second axis: each job runs one
// server of its own per machine it spans, so a job only needs its
// machine count to fit the cluster.
package cluster

import (
	"fmt"
	"sync"
)

// Demand is the resource footprint of one job against an Inventory.
type Demand struct {
	// GPUs is the worker count: machines × gpus-per-machine.
	GPUs int
	// Machines is how many machines the job spans, one of its parameter
	// servers on each. Must fit the inventory's machine count but is not
	// an exclusive charge.
	Machines int
}

// DemandOf computes the footprint of a job shaped machines × gpus.
func DemandOf(machines, gpus int) Demand {
	return Demand{GPUs: machines * gpus, Machines: machines}
}

// Inventory tracks the free share of a fixed cluster capacity. Safe for
// concurrent use.
type Inventory struct {
	mu       sync.Mutex
	machines int
	gpus     int // total across all machines
	freeGPUs int
}

// NewInventory creates an inventory for a cluster of machines × gpus.
func NewInventory(machines, gpusPerMachine int) (*Inventory, error) {
	if machines < 1 || gpusPerMachine < 1 {
		return nil, fmt.Errorf("cluster: inventory needs machines >= 1 and gpus >= 1, got %d x %d", machines, gpusPerMachine)
	}
	total := machines * gpusPerMachine
	return &Inventory{machines: machines, gpus: total, freeGPUs: total}, nil
}

// Machines returns the cluster's machine count.
func (inv *Inventory) Machines() int { return inv.machines }

// CapacityGPUs returns the total GPU count.
func (inv *Inventory) CapacityGPUs() int { return inv.gpus }

// FreeGPUs returns the currently unallocated GPU count.
func (inv *Inventory) FreeGPUs() int {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.freeGPUs
}

// Admits reports whether d could EVER be admitted — it fits the total
// capacity when the cluster is idle. A demand failing Admits is
// rejected outright; one passing it but exceeding the free share is
// queued.
func (inv *Inventory) Admits(d Demand) error {
	switch {
	case d.GPUs < 1 || d.Machines < 1:
		return fmt.Errorf("cluster: demand must be positive, got %d GPUs on %d machines", d.GPUs, d.Machines)
	case d.Machines > inv.machines:
		return fmt.Errorf("cluster: job spans %d machines, cluster has %d", d.Machines, inv.machines)
	case d.GPUs > inv.gpus:
		return fmt.Errorf("cluster: job needs %d GPUs, cluster has %d", d.GPUs, inv.gpus)
	}
	return nil
}

// TryAcquire charges d against the free share. It returns false —
// without charging anything — when the free share cannot cover d;
// callers queue and retry after a Release. An inadmissible demand
// (failing Admits) is never acquirable.
func (inv *Inventory) TryAcquire(d Demand) bool {
	if inv.Admits(d) != nil {
		return false
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if d.GPUs > inv.freeGPUs {
		return false
	}
	inv.freeGPUs -= d.GPUs
	return true
}

// Release returns d's charge to the free share. Releasing more than
// was acquired panics: it means the scheduler double-freed a job.
func (inv *Inventory) Release(d Demand) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	inv.freeGPUs += d.GPUs
	if inv.freeGPUs > inv.gpus {
		panic("cluster: inventory release exceeds capacity")
	}
}
