package cluster

import (
	"testing"

	"hyperprof/internal/netsim"
	"hyperprof/internal/sim"
	"hyperprof/internal/storage"
)

func testSpec() Spec {
	return Spec{
		Regions:         2,
		RacksPerRegion:  3,
		MachinesPerRack: 4,
		CoresPerMachine: 8,
		Storage: storage.Capacities{
			storage.RAM: 1 << 30, storage.SSD: 8 << 30, storage.HDD: 64 << 30,
		},
	}
}

func testManager(t *testing.T) *Manager {
	t.Helper()
	k := sim.New()
	net := netsim.New(k, netsim.DefaultConfig())
	m, err := NewManager(net, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFleetConstruction(t *testing.T) {
	m := testManager(t)
	if got := len(m.Machines()); got != 24 {
		t.Fatalf("machines = %d, want 24", got)
	}
	regions := map[int]int{}
	for _, mc := range m.Machines() {
		regions[mc.Node.Region]++
		if mc.Store == nil || mc.Store.Capacity(storage.RAM) != 1<<30 {
			t.Fatal("store not provisioned")
		}
	}
	if regions[0] != 12 || regions[1] != 12 {
		t.Fatalf("region split = %v", regions)
	}
}

func TestSpecValidation(t *testing.T) {
	k := sim.New()
	net := netsim.New(k, netsim.DefaultConfig())
	if _, err := NewManager(net, Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	s := testSpec()
	s.CoresPerMachine = 0
	if _, err := NewManager(net, s); err == nil {
		t.Fatal("zero cores accepted")
	}
	s = testSpec()
	s.Storage = storage.Capacities{storage.RAM: 0, storage.SSD: 1, storage.HDD: 1}
	if _, err := NewManager(net, s); err == nil {
		t.Fatal("invalid storage accepted")
	}
}
