package cache

import (
	"math/bits"
	"sync"

	"asap/internal/arch"
)

// level is one cache array (an L1, an L2, or the shared L3), stored
// struct-of-arrays for scan speed: the associative tag match touches only
// the packed tags array (16 ways = two cache lines instead of the eight an
// array-of-slots layout costs), and the set index is a mask, not a modulo.
//
// Slots are named by index si = set*ways + way. A slot's validity is
// encoded in its tag: tag 0 is invalid, a valid slot holds line|1 (line
// addresses have their low LineShift bits clear, so every valid tag is odd
// and line 0 is representable).
//
// A slot names its line's metadata in one of two ways, fixed when the
// level is built: an L1 holds *Meta pointers (meta), so the L1-hit path
// reads the pointer straight from the slot; an L2 or L3 holds Handles into
// the table's arena (hdl), so its arrays — the bulk of a machine's cache
// memory — contain no pointers and the GC never scans them. Exactly one of
// meta and hdl is allocated. A slot's metadata is meaningful only while
// its tag is valid.
//
// Levels are recycled through a pool per shape (acquireLevel,
// releaseLevel). install is the only writer that makes a slot valid, and
// every other write lands on a slot a lookup or victim scan found in an
// installed set, so the sets install marks in touched are the only ones
// that can differ from a fresh level: reset clears exactly those.
type level struct {
	setMask uint64 // sets-1; sets is a power of two
	ways    int
	tags    []uint64 // sets*ways packed tags: 0 = invalid, else line|1
	dirty   []bool
	lastUse []uint64
	meta    []*Meta  // L1 slot metadata: the victim scan's pinned check
	hdl     []Handle // L2/L3 slot metadata, resolved through table
	table   *Table   // the owning hierarchy's table; nil while pooled
	touched []uint64 // bitmap of sets install wrote since the last reset
	clock   uint64   // LRU timestamp source
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// levelShape is what a level's arrays depend on: two levels of one shape
// are interchangeable after reset.
type levelShape struct {
	sets, ways int
	handles    bool
}

func shapeOf(cfg LevelConfig, handles bool) levelShape {
	// Power-of-two sets let setOf mask instead of divide. Non-power-of-two
	// Sets configs are rounded up (documented in LevelConfig); every config
	// in the repo and in Table 2 is already a power of two, for which this
	// is the identity.
	return levelShape{sets: ceilPow2(cfg.Sets), ways: cfg.Ways, handles: handles}
}

// newLevel allocates a zeroed level: handle slots when handles is set
// (L2/L3), pointer slots otherwise (L1).
func newLevel(cfg LevelConfig, handles bool) *level {
	sh := shapeOf(cfg, handles)
	n := sh.sets * sh.ways
	l := &level{
		setMask: uint64(sh.sets - 1),
		ways:    sh.ways,
		tags:    make([]uint64, n),
		dirty:   make([]bool, n),
		lastUse: make([]uint64, n),
		touched: make([]uint64, (sh.sets+63)/64),
	}
	if handles {
		l.hdl = make([]Handle, n)
	} else {
		l.meta = make([]*Meta, n)
	}
	return l
}

// levelPools holds one *sync.Pool of reset levels per levelShape.
var levelPools sync.Map

// acquireLevel returns a level of cfg's shape for a hierarchy whose
// metadata lives in t, and whether it was recycled from the pool.
func acquireLevel(cfg LevelConfig, handles bool, t *Table) (*level, bool) {
	var l *level
	if p, ok := levelPools.Load(shapeOf(cfg, handles)); ok {
		l, _ = p.(*sync.Pool).Get().(*level)
	}
	recycled := l != nil
	if !recycled {
		l = newLevel(cfg, handles)
	}
	l.table = t
	return l, recycled
}

// releaseLevel resets l and returns it to its shape's pool. The caller
// must drop every reference to l.
func releaseLevel(l *level) {
	l.reset()
	sh := levelShape{sets: l.sets(), ways: l.ways, handles: l.hdl != nil}
	p, _ := levelPools.LoadOrStore(sh, new(sync.Pool))
	p.(*sync.Pool).Put(l)
}

// reset returns l to newLevel's state, clearing only the sets install
// marked: cost proportional to the sets the run touched, not the level.
func (l *level) reset() {
	for wi, word := range l.touched {
		for ; word != 0; word &= word - 1 {
			lo := (wi<<6 | bits.TrailingZeros64(word)) * l.ways
			hi := lo + l.ways
			clear(l.tags[lo:hi])
			clear(l.dirty[lo:hi])
			clear(l.lastUse[lo:hi])
			if l.hdl != nil {
				clear(l.hdl[lo:hi])
			} else {
				clear(l.meta[lo:hi])
			}
		}
		l.touched[wi] = 0
	}
	l.clock = 0
	l.table = nil
}

// sets returns the effective (rounded) set count.
func (l *level) sets() int { return int(l.setMask) + 1 }

// setOf returns line's set index.
func (l *level) setOf(line arch.LineAddr) int {
	return int(uint64(line) >> arch.LineShift & l.setMask)
}

// setBase returns the first slot index of line's set.
func (l *level) setBase(line arch.LineAddr) int {
	return l.setOf(line) * l.ways
}

// lookup returns the slot index holding line, or -1. The scan reads only
// the packed tags of one set.
func (l *level) lookup(line arch.LineAddr) int {
	base := l.setBase(line)
	tag := uint64(line) | 1
	for i, t := range l.tags[base : base+l.ways] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

func (l *level) touch(si int) {
	l.clock++
	l.lastUse[si] = l.clock
}

// metaAt returns the metadata of the line in valid slot si.
func (l *level) metaAt(si int) *Meta {
	if l.hdl != nil {
		return l.table.At(l.hdl[si])
	}
	return l.meta[si]
}

// victim picks the fill target in line's set: the first invalid way if
// any, otherwise the LRU way among those whose lines are not pinned
// (LockBit). Returns -1 if every way is pinned — the caller must stall.
// A way that cannot beat the current LRU candidate is skipped before its
// pinned check, so the check's metadata read happens only for ways that
// would win.
func (l *level) victim(line arch.LineAddr) int {
	base := l.setBase(line)
	lru := -1
	for i := 0; i < l.ways; i++ {
		si := base + i
		if l.tags[si] == 0 {
			return si
		}
		if lru >= 0 && l.lastUse[si] >= l.lastUse[lru] {
			continue
		}
		if l.metaAt(si).Locks > 0 {
			continue
		}
		lru = si
	}
	return lru
}

// lineOf returns the line held by a valid slot.
func (l *level) lineOf(si int) arch.LineAddr {
	return arch.LineAddr(l.tags[si] &^ 1)
}

// invalidate drops line from the level, returning whether it was present
// and whether it was dirty.
func (l *level) invalidate(line arch.LineAddr) (present, dirty bool) {
	if si := l.lookup(line); si >= 0 {
		l.tags[si] = 0
		if l.meta != nil {
			l.meta[si] = nil
		}
		return true, l.dirty[si]
	}
	return false, false
}

// install places line, with its metadata pointer, into the given slot of
// an L1 (already chosen by victim).
func (l *level) install(si int, line arch.LineAddr, m *Meta, dirty bool) {
	l.meta[si] = m
	l.fill(si, line, dirty)
}

// installH places line, with its metadata handle, into the given slot of
// an L2 or L3 (already chosen by victim).
func (l *level) installH(si int, line arch.LineAddr, h Handle, dirty bool) {
	l.hdl[si] = h
	l.fill(si, line, dirty)
}

// fill is the only writer that makes a slot valid; it marks the slot's
// set for reset.
func (l *level) fill(si int, line arch.LineAddr, dirty bool) {
	l.tags[si] = uint64(line) | 1
	l.dirty[si] = dirty
	set := l.setOf(line)
	l.touched[set>>6] |= 1 << uint(set&63)
	l.touch(si)
}
