package cache

import "asap/internal/snapshot"

// appendLevel digests one cache array slot-by-slot: packed tags, dirty
// bits, LRU stamps and clock, and each slot's metadata identity (^0 for
// an invalid slot, whatever stale handle it keeps). Slot order is
// structural (set*ways+way), so the encoding is deterministic by
// construction.
func appendLevel(e *snapshot.Enc, l *level) {
	e.U64(l.clock)
	e.I64(int64(len(l.tags)))
	for _, t := range l.tags {
		e.U64(t)
	}
	for _, d := range l.dirty {
		e.Bool(d)
	}
	for _, u := range l.lastUse {
		e.U64(u)
	}
	for si, t := range l.tags {
		if t == 0 {
			e.U64(^uint64(0))
		} else {
			e.U64(uint64(l.metaAt(si).line))
		}
	}
}

// AppendState digests the whole cache system: every private L1/L2, the
// shared L3, and the tag-extension table in allocation (handle) order —
// which is deterministic because handle assignment follows first-touch
// order, itself a scheduling outcome.
func (h *Hierarchy) AppendState(e *snapshot.Enc) {
	e.Section("cache")
	e.I64(int64(h.cores))
	for _, l := range h.l1 {
		appendLevel(e, l)
	}
	for _, l := range h.l2 {
		appendLevel(e, l)
	}
	appendLevel(e, h.l3)

	e.Section("cache.table")
	e.I64(int64(h.table.n))
	h.table.visit(func(m *Meta) {
		e.U64(uint64(m.line))
		e.Bool(m.PBit)
		e.I64(int64(m.Locks))
		e.U64(uint64(m.Owner))
		e.U64(m.holders)
	})
}
