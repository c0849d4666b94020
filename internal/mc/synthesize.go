package mc

import (
	"mcpat/internal/component"
	"mcpat/internal/power"
)

// The off-chip interface models have no Name field, so their raw Config
// values (with Tech replaced by the node's value fingerprint) already
// canonically identify a synthesis; keys do not fold zero fields onto
// their defaults, which at worst costs one extra cache entry per spelling
// of the same configuration, never a wrong hit. Each family has its own
// typed cache; all three count under KindMC.

type mcKey struct {
	TechFP uint64
	Cfg    Config
}

var controllers = component.NewCache[mcKey, *Controller](component.KindMC)

// Synthesize is the memoized front of New: repeated synthesis of an
// equivalent memory-controller configuration returns the one shared
// *Controller instance, which must be treated as immutable.
func Synthesize(cfg Config) (*Controller, error) {
	if cfg.Tech == nil {
		return New(cfg) // surface the constructor's config error
	}
	key := mcKey{TechFP: cfg.Tech.Fingerprint(), Cfg: cfg}
	key.Cfg.Tech = nil
	return controllers.Do(key, nil, func() (*Controller, error) {
		return New(cfg)
	})
}

type niuKey struct {
	TechFP uint64
	Cfg    NIUConfig
}

var nius = component.NewCache[niuKey, power.PAT](component.KindMC)

// SynthesizeNIU is the memoized front of NewNIU.
func SynthesizeNIU(cfg NIUConfig) (power.PAT, error) {
	if cfg.Tech == nil {
		return NewNIU(cfg)
	}
	key := niuKey{TechFP: cfg.Tech.Fingerprint(), Cfg: cfg}
	key.Cfg.Tech = nil
	return nius.Do(key, nil, func() (power.PAT, error) {
		return NewNIU(cfg)
	})
}

type pcieKey struct {
	TechFP uint64
	Cfg    PCIeConfig
}

var pcies = component.NewCache[pcieKey, power.PAT](component.KindMC)

// SynthesizePCIe is the memoized front of NewPCIe.
func SynthesizePCIe(cfg PCIeConfig) (power.PAT, error) {
	if cfg.Tech == nil {
		return NewPCIe(cfg)
	}
	key := pcieKey{TechFP: cfg.Tech.Fingerprint(), Cfg: cfg}
	key.Cfg.Tech = nil
	return pcies.Do(key, nil, func() (power.PAT, error) {
		return NewPCIe(cfg)
	})
}
