package clock

import "mcpat/internal/component"

// synthKey canonically identifies one clock-network synthesis: the raw
// Config (Config has no Name field and no consumed-then-ignored fields)
// with Tech replaced by the node's value fingerprint.
type synthKey struct {
	TechFP uint64
	Cfg    Config
}

var networks = component.NewCache[synthKey, *Network](component.KindClock)

// Synthesize is the memoized front of New: repeated synthesis of an
// equivalent clock-network configuration returns the one shared
// *Network instance, which must be treated as immutable. Because the
// key embeds ChipArea, the clock re-synthesizes whenever the chip
// floorplan changes — that is correct and cheap; the cache earns its
// keep on repeated evaluation of the same chip.
func Synthesize(cfg Config) (*Network, error) {
	if cfg.Tech == nil {
		return New(cfg) // surface the constructor's config error
	}
	key := synthKey{TechFP: cfg.Tech.Fingerprint(), Cfg: cfg}
	key.Cfg.Tech = nil
	return networks.Do(key, nil, func() (*Network, error) {
		return New(cfg)
	})
}
