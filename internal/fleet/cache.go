package fleet

import "everest/internal/platform"

// bitstreamCache is one site's bounded set of resident bitstreams. Each
// entry records the device slot holding the deployed artifact; capacity is
// the number of bitstreams the site may keep resident at once, so filling
// it forces a genuine eviction — the victim's slot is unprogrammed and a
// later request for it pays a full redeploy. Eviction order is LRU over a
// monotonic use sequence, which makes the victim deterministic (no two
// entries share a sequence number).
//
// A slot is either a whole device (region < 0, the classic path: the
// victim's device is unprogrammed outright) or one partial-reconfiguration
// region of a device (region >= 0, Config.PartialReconfig: several slots
// share a card and evicting one clears only that region). occupied() is
// what keeps the two granularities from clobbering each other: a
// whole-device entry blocks every region of its card and vice versa.
//
// The cache itself is not synchronized; the fleet lock guards it (serving
// mutates, the router peeks).
type cacheSlot struct {
	id     string
	node   *platform.Node
	dev    int
	region int   // PR region slot, or -1 for a whole-device program
	use    int64 // last-touch sequence
}

// unprogram frees the slot's fabric share: the whole device for a classic
// slot, just the region for a per-region one.
func (s *cacheSlot) unprogram() {
	if s.region < 0 {
		_, _ = s.node.Unprogram(s.dev)
		return
	}
	_, _ = s.node.UnprogramRegion(s.dev, s.region)
}

type bitstreamCache struct {
	slots int
	seq   int64
	m     map[string]*cacheSlot
}

func newBitstreamCache(slots int) *bitstreamCache {
	if slots < 1 {
		slots = 1
	}
	return &bitstreamCache{slots: slots, m: make(map[string]*cacheSlot)}
}

func (c *bitstreamCache) len() int { return len(c.m) }

// get returns the slot holding id and refreshes its recency.
func (c *bitstreamCache) get(id string) (*cacheSlot, bool) {
	s, ok := c.m[id]
	if ok {
		c.seq++
		s.use = c.seq
	}
	return s, ok
}

// peek returns the slot holding id without touching recency (router cost
// estimates must not perturb LRU order).
func (c *bitstreamCache) peek(id string) (*cacheSlot, bool) {
	s, ok := c.m[id]
	return s, ok
}

// add records a freshly deployed bitstream as most recently used. An id
// that is already resident refreshes in place: when the new deployment
// landed on a different slot, the stale slot is unprogrammed first —
// otherwise it would stay programmed with no cache entry pointing at it
// while occupied() kept reporting the dead slot forever.
func (c *bitstreamCache) add(id string, node *platform.Node, dev, region int) {
	c.seq++
	if s, ok := c.m[id]; ok {
		if s.node != node || s.dev != dev || s.region != region {
			s.unprogram()
		}
		s.node, s.dev, s.region, s.use = node, dev, region, c.seq
		return
	}
	c.m[id] = &cacheSlot{id: id, node: node, dev: dev, region: region, use: c.seq}
}

func (c *bitstreamCache) remove(id string) { delete(c.m, id) }

// lru returns the least recently used slot, or nil when empty.
func (c *bitstreamCache) lru() *cacheSlot {
	var victim *cacheSlot
	for _, s := range c.m {
		if victim == nil || s.use < victim.use {
			victim = s
		}
	}
	return victim
}

// occupied reports whether programming (node, dev, region) would clobber a
// resident entry. A whole-device candidate (region < 0) conflicts with any
// entry on the device; a region candidate conflicts with a whole-device
// entry on the device or an entry in the same region.
func (c *bitstreamCache) occupied(node *platform.Node, dev, region int) bool {
	for _, s := range c.m {
		if s.node != node || s.dev != dev {
			continue
		}
		if region < 0 || s.region < 0 || s.region == region {
			return true
		}
	}
	return false
}
