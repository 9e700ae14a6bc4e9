// Package cluster builds the fleet the platforms run on (§2.1): homogeneous
// machines across regions and racks, each a network node with its own
// provisioned storage tiers. Platforms place their tasks by iterating
// Machines.
package cluster

import (
	"fmt"

	"hyperprof/internal/netsim"
	"hyperprof/internal/storage"
)

// Spec describes a fleet to build.
type Spec struct {
	Regions         int
	RacksPerRegion  int
	MachinesPerRack int
	CoresPerMachine int
	// Storage provisions each machine's tiered store.
	Storage storage.Capacities
	// TierParams overrides media parameters (nil = defaults).
	TierParams map[storage.Tier]storage.TierParams
}

// Machines returns the total machine count.
func (s Spec) Machines() int { return s.Regions * s.RacksPerRegion * s.MachinesPerRack }

// Machine is one server: a network node plus its local tiered store.
type Machine struct {
	Node  *netsim.Node
	Store *storage.TieredStore
}

// Manager owns the fleet.
type Manager struct {
	machines []*Machine
}

// NewManager builds the fleet described by spec on the given network.
func NewManager(net *netsim.Network, spec Spec) (*Manager, error) {
	if spec.Machines() <= 0 {
		return nil, fmt.Errorf("cluster: empty fleet spec")
	}
	if spec.CoresPerMachine <= 0 {
		return nil, fmt.Errorf("cluster: cores per machine must be positive")
	}
	m := &Manager{}
	for r := 0; r < spec.Regions; r++ {
		for rack := 0; rack < spec.RacksPerRegion; rack++ {
			for i := 0; i < spec.MachinesPerRack; i++ {
				name := fmt.Sprintf("m-r%d-k%d-%d", r, rack, i)
				node := net.NewNode(name, r, rack, spec.CoresPerMachine)
				store, err := storage.NewTieredStore(spec.Storage, spec.TierParams)
				if err != nil {
					return nil, err
				}
				m.machines = append(m.machines, &Machine{Node: node, Store: store})
			}
		}
	}
	return m, nil
}

// Machines returns all machines in the fleet.
func (m *Manager) Machines() []*Machine { return m.machines }
