package cache

import "mcpat/internal/component"

// synthKey canonically identifies one cache synthesis: the normalized
// Config (defaults applied, exactly what New reads) with Tech replaced
// by the node's value fingerprint and report-/error-only or consumed
// fields cleared.
type synthKey struct {
	TechFP uint64
	Cfg    Config
}

var caches = component.NewCache[synthKey, *Cache](component.KindCache)

// Synthesize is the memoized front of New: repeated synthesis of an
// equivalent cache configuration returns the one shared *Cache instance.
// The result must be treated as immutable (Report, AccessTime and Cfg
// already are pure). Errors are never cached and carry the caller's
// Name.
func Synthesize(cfg Config) (*Cache, error) {
	norm := cfg
	if err := norm.applyDefaults(); err != nil {
		return nil, err
	}
	key := synthKey{TechFP: norm.Tech.Fingerprint(), Cfg: norm}
	key.Cfg.Tech = nil
	key.Cfg.Name = ""
	// CellHP only steers the cell-device resolution applyDefaults just
	// performed; CellDev now carries the outcome.
	key.Cfg.CellHP = false
	if !key.Cfg.Directory {
		key.Cfg.Sharers = 0 // unread without a directory
	}
	// The disk tier (active only when a persistent cache directory is
	// configured) round-trips the synthesized cache through the codec in
	// persist.go; norm supplies the *tech.Node to reattach on decode.
	return caches.Do(key, diskCodec(norm.Tech), func() (*Cache, error) {
		return New(cfg)
	})
}
