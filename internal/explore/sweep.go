package explore

import "mcpat/internal/chip"

// Sweep is the wire description of one sweep: the fixed parameters,
// swept axes, budget, and objective that POST /v1/dse, the distributed
// shard protocol (POST /v1/dse/shard), and the mcpatd job journal all
// carry. Fabrics and the objective travel by name; zero values select
// the engine defaults.
type Sweep struct {
	// Fixed parameters (Params).
	NM      float64 `json:"nm,omitempty"`
	ClockHz float64 `json:"clock_hz,omitempty"`
	Threads int     `json:"threads,omitempty"`
	MemBW   float64 `json:"mem_bw_bytes_per_s,omitempty"`

	// Swept axes (Space). Fabrics use the fabric names
	// "none", "bus", "crossbar", "mesh", "ring".
	Cores        []int    `json:"cores,omitempty"`
	L2PerCoreKB  []int    `json:"l2_per_core_kb,omitempty"`
	Fabrics      []string `json:"fabrics,omitempty"`
	ClusterSizes []int    `json:"cluster_sizes,omitempty"`

	// Budget (Constraints); 0 = unconstrained.
	MaxAreaMM2 float64 `json:"max_area_mm2,omitempty"`
	MaxTDPW    float64 `json:"max_tdp_w,omitempty"`

	// Objective: "throughput" (default), "perf/watt", or "ed2ap".
	Objective string `json:"objective,omitempty"`
}

// NewSweep returns the wire description of engine inputs.
// Params.Workloads does not travel: every sweep on the wire uses the
// default workloads.
func NewSweep(p Params, space Space, cons Constraints, obj Objective) Sweep {
	s := Sweep{
		NM:           p.NM,
		ClockHz:      p.ClockHz,
		Threads:      p.Threads,
		MemBW:        p.MemBW,
		Cores:        space.Cores,
		L2PerCoreKB:  space.L2PerCoreKB,
		ClusterSizes: space.ClusterSizes,
		MaxAreaMM2:   cons.MaxAreaMM2,
		MaxTDPW:      cons.MaxTDP,
		Objective:    obj.String(),
	}
	for _, k := range space.Fabrics {
		s.Fabrics = append(s.Fabrics, k.String())
	}
	return s
}

// Inputs parses the sweep into engine inputs. An unknown fabric or
// objective name returns the parser's error unclassified, so each
// endpoint reports it in its own terms.
func (s *Sweep) Inputs() (Params, Space, Constraints, Objective, error) {
	p := Params{NM: s.NM, ClockHz: s.ClockHz, Threads: s.Threads, MemBW: s.MemBW}
	space := Space{Cores: s.Cores, L2PerCoreKB: s.L2PerCoreKB, ClusterSizes: s.ClusterSizes}
	cons := Constraints{MaxAreaMM2: s.MaxAreaMM2, MaxTDP: s.MaxTDPW}
	for _, name := range s.Fabrics {
		k, err := chip.ParseInterconnectKind(name)
		if err != nil {
			return p, space, cons, 0, err
		}
		space.Fabrics = append(space.Fabrics, k)
	}
	obj, err := ParseObjective(s.Objective)
	return p, space, cons, obj, err
}
