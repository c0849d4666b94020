package interconnect

import "mcpat/internal/component"

// Memoized fronts of the fabric constructors. The configs have no Name
// field, so their raw values (with Tech replaced by the node's value
// fingerprint) canonically identify a synthesis; keys do not fold zero
// fields onto their defaults, which at worst costs one extra cache entry
// per spelling of the same configuration, never a wrong hit. Each family
// has its own typed cache; all four count under KindFabric. Results must
// be treated as immutable.

type routerKey struct {
	TechFP uint64
	Cfg    RouterConfig
}

var routers = component.NewCache[routerKey, *Router](component.KindFabric)

// SynthesizeRouter is the memoized front of NewRouter.
func SynthesizeRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Tech == nil {
		return NewRouter(cfg) // surface the constructor's config error
	}
	key := routerKey{TechFP: cfg.Tech.Fingerprint(), Cfg: cfg}
	key.Cfg.Tech = nil
	return routers.Do(key, nil, func() (*Router, error) {
		return NewRouter(cfg)
	})
}

type linkKey struct {
	TechFP uint64
	Cfg    LinkConfig
}

var links = component.NewCache[linkKey, *Link](component.KindFabric)

// SynthesizeLink is the memoized front of NewLink.
func SynthesizeLink(cfg LinkConfig) (*Link, error) {
	if cfg.Tech == nil {
		return NewLink(cfg)
	}
	key := linkKey{TechFP: cfg.Tech.Fingerprint(), Cfg: cfg}
	key.Cfg.Tech = nil
	return links.Do(key, nil, func() (*Link, error) {
		return NewLink(cfg)
	})
}

type busKey struct {
	TechFP uint64
	Cfg    BusConfig
}

var buses = component.NewCache[busKey, *Link](component.KindFabric)

// SynthesizeBus is the memoized front of NewBus.
func SynthesizeBus(cfg BusConfig) (*Link, error) {
	if cfg.Tech == nil {
		return NewBus(cfg)
	}
	key := busKey{TechFP: cfg.Tech.Fingerprint(), Cfg: cfg}
	key.Cfg.Tech = nil
	return buses.Do(key, nil, func() (*Link, error) {
		return NewBus(cfg)
	})
}

type crossbarKey struct {
	TechFP uint64
	Cfg    CrossbarConfig
}

var crossbars = component.NewCache[crossbarKey, *Link](component.KindFabric)

// SynthesizeCrossbar is the memoized front of NewCrossbar.
func SynthesizeCrossbar(cfg CrossbarConfig) (*Link, error) {
	if cfg.Tech == nil {
		return NewCrossbar(cfg)
	}
	key := crossbarKey{TechFP: cfg.Tech.Fingerprint(), Cfg: cfg}
	key.Cfg.Tech = nil
	return crossbars.Do(key, nil, func() (*Link, error) {
		return NewCrossbar(cfg)
	})
}
