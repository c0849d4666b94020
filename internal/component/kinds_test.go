package component_test

import (
	"testing"

	"mcpat/internal/component"
	"mcpat/internal/interconnect"
	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// TestFabricFrontsCountUnderOneKind: the four fabric fronts memoize in
// four typed caches, yet every hit and miss is attributed to KindFabric
// and every resident entry is counted once.
func TestFabricFrontsCountUnderOneKind(t *testing.T) {
	prev := component.SetCacheEnabled(true)
	component.ResetCache()
	t.Cleanup(func() {
		component.SetCacheEnabled(prev)
		component.ResetCache()
	})
	n := techtest.Node(65)
	fronts := []func() error{
		func() error {
			_, err := interconnect.SynthesizeRouter(interconnect.RouterConfig{
				Tech: n, Dev: tech.HP, FlitBits: 128, Ports: 5, VirtualChannels: 4, BuffersPerVC: 4})
			return err
		},
		func() error {
			_, err := interconnect.SynthesizeLink(interconnect.LinkConfig{
				Tech: n, Dev: tech.HP, FlitBits: 128, Length: 2e-3, Clock: 1.4e9})
			return err
		},
		func() error {
			_, err := interconnect.SynthesizeBus(interconnect.BusConfig{
				Tech: n, Dev: tech.HP, Bits: 256, Length: 10e-3, Agents: 8, Clock: 1.4e9})
			return err
		},
		func() error {
			_, err := interconnect.SynthesizeCrossbar(interconnect.CrossbarConfig{
				Tech: n, Dev: tech.HP, InPorts: 8, OutPorts: 9, Bits: 128})
			return err
		},
	}
	for round := 0; round < 2; round++ {
		for _, f := range fronts {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs := component.Stats()
	want := component.KindStats{Hits: 4, Misses: 4}
	for k, ks := range cs.Kinds {
		if component.Kind(k) == component.KindFabric {
			if ks != want {
				t.Errorf("fabric = %+v, want %+v", ks, want)
			}
		} else if ks != (component.KindStats{}) {
			t.Errorf("%v = %+v, want no activity", component.Kind(k), ks)
		}
	}
	if cs.Entries != 4 {
		t.Errorf("Entries = %d, want 4", cs.Entries)
	}
}
