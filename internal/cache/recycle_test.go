package cache

// Level recycling: reset must return a level to exactly newLevel's state,
// Release must hand each array to the pool at most once, and a released
// hierarchy must refuse further use. Core counts past the 64-bit holders
// mask are rejected up front.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"asap/internal/arch"
	"asap/internal/memdev"
	"asap/internal/sim"
	"asap/internal/stats"
)

// TestLevelResetMatchesNewLevel: after any mix of installs, touches,
// dirtying and invalidations, reset leaves every array of the level equal
// to a fresh newLevel's, for pointer (L1) and handle (L2/L3) levels alike.
func TestLevelResetMatchesNewLevel(t *testing.T) {
	shapes := []LevelConfig{
		{Sets: 1, Ways: 1}, {Sets: 3, Ways: 2}, {Sets: 64, Ways: 8},
		{Sets: 128, Ways: 4}, {Sets: 200, Ways: 16},
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := shapes[rng.Intn(len(shapes))]
		handles := rng.Intn(2) == 0
		table := NewTable(func(arch.LineAddr) bool { return true })
		l := newLevel(cfg, handles)
		l.table = table
		pool := l.sets() * l.ways * 3
		for op := 0; op < 1+rng.Intn(2000); op++ {
			ln := line(rng.Intn(pool))
			switch r := rng.Intn(10); {
			case r < 5:
				if si := l.lookup(ln); si >= 0 {
					l.touch(si)
					if r == 0 {
						l.dirty[si] = true
					}
					continue
				}
				v := l.victim(ln)
				if v < 0 {
					continue
				}
				h, m := table.GetH(ln)
				if handles {
					l.installH(v, ln, h, rng.Intn(2) == 0)
				} else {
					l.install(v, ln, m, rng.Intn(2) == 0)
				}
			case r < 8:
				l.invalidate(ln)
			default:
				table.Get(ln).Locks ^= 1 // pin and unpin lines at random
			}
		}
		l.reset()
		if fresh := newLevel(cfg, handles); !reflect.DeepEqual(l, fresh) {
			t.Fatalf("seed %d (%+v, handles=%v): reset level differs from newLevel's", seed, cfg, handles)
		}
	}
}

// poolOf returns the pool that holds levels of cfg's shape.
func poolOf(cfg LevelConfig, handles bool) *sync.Pool {
	p, _ := levelPools.LoadOrStore(shapeOf(cfg, handles), new(sync.Pool))
	return p.(*sync.Pool)
}

// TestReleaseTwiceIsNoop: a second Release must not put the same arrays
// into the pool again — two hierarchies sharing a level would silently
// overwrite each other's lines.
func TestReleaseTwiceIsNoop(t *testing.T) {
	// A shape no other test uses, so the pool holds only this test's levels.
	cfg := Config{
		L1: LevelConfig{Sets: 2, Ways: 3, Latency: 4},
		L2: LevelConfig{Sets: 4, Ways: 3, Latency: 14},
		L3: LevelConfig{Sets: 8, Ways: 3, Latency: 42},
	}
	st := stats.New()
	f := memdev.NewFabric(sim.NewKernel(), st, memdev.DefaultConfig())
	h := NewHierarchy(st, f, 2, cfg, func(arch.LineAddr) bool { return true })
	for i := 0; i < 40; i++ {
		mustAccess(t, h, i%2, line(i), i%3 == 0)
	}
	h.Release()
	h.Release()

	for _, pc := range []struct {
		cfg     LevelConfig
		handles bool
	}{{cfg.L1, false}, {cfg.L2, true}, {cfg.L3, true}} {
		p := poolOf(pc.cfg, pc.handles)
		seen := map[*level]bool{}
		for {
			l, _ := p.Get().(*level)
			if l == nil {
				break
			}
			if seen[l] {
				t.Fatalf("level %+v (handles=%v) was pooled twice", pc.cfg, pc.handles)
			}
			seen[l] = true
		}
	}
}

// TestUseAfterReleasePanics: a released hierarchy has no arrays left, so
// any cache operation fails loudly instead of reading recycled state.
func TestUseAfterReleasePanics(t *testing.T) {
	ops := map[string]func(h *Hierarchy){
		"Access":    func(h *Hierarchy) { h.Access(0, line(1), false) },
		"CanAccess": func(h *Hierarchy) { h.CanAccess(0, line(1)) },
		"Present":   func(h *Hierarchy) { h.Present(line(1)) },
		"MarkClean": func(h *Hierarchy) { h.MarkClean(line(1)) },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			_, h := tiny(1, nil)
			mustAccess(t, h, 0, line(1), true)
			h.Release()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Release did not panic", name)
				}
			}()
			op(h)
		})
	}
}

// TestNewHierarchyRejectsCoreCounts: holders is a 64-bit mask, so a core
// count outside 1..MaxCores is a bug the constructor must refuse.
func TestNewHierarchyRejectsCoreCounts(t *testing.T) {
	for _, cores := range []int{0, -1, MaxCores + 1, 128} {
		t.Run(fmt.Sprint(cores), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHierarchy with %d cores did not panic", cores)
				}
			}()
			tiny(cores, nil)
		})
	}
}

// TestHighestCoreIsAHolder: at MaxCores the last core's private copies
// must be tracked like any other's, so a write from core 0 invalidates
// them and an LLC eviction back-invalidates them.
func TestHighestCoreIsAHolder(t *testing.T) {
	_, h := tiny(MaxCores, nil)
	last := MaxCores - 1
	mustAccess(t, h, last, line(0), false)
	if m := h.Table().Get(line(0)); m.holders != 1<<uint(last) {
		t.Fatalf("holders = %b, want only core %d", m.holders, last)
	}
	mustAccess(t, h, 0, line(0), true)
	if h.l1[last].lookup(line(0)) >= 0 || h.l2[last].lookup(line(0)) >= 0 {
		t.Fatalf("core %d kept a stale copy after core 0's write", last)
	}

	// Back-invalidation: core 63 caches line 1, then lines mapping to the
	// same L3 set push it out of the LLC.
	mustAccess(t, h, last, line(1), false)
	for i := 1; i <= 2; i++ {
		mustAccess(t, h, 0, line(1+8*i), false)
	}
	if h.Present(line(1)) {
		t.Fatal("line 1 should have left the LLC")
	}
	if h.l1[last].lookup(line(1)) >= 0 || h.l2[last].lookup(line(1)) >= 0 {
		t.Fatalf("inclusion broken: core %d still holds a line the LLC evicted", last)
	}
}

// TestDigestIgnoresStaleHandles: an invalidated L2/L3 slot keeps its old
// handle, but the digest must encode every slot whose tag is 0 as ^0, so
// state digests cannot depend on what a slot held before.
func TestDigestIgnoresStaleHandles(t *testing.T) {
	_, h := tiny(2, nil)
	for i := 0; i < 200; i++ {
		mustAccess(t, h, i%2, line(i*7%40), i%3 == 0)
	}
	want := stateDigest(h)
	stale := 0
	for _, l := range append([]*level{h.l3}, h.l2...) {
		for si, tag := range l.tags {
			if tag == 0 {
				l.hdl[si] = Handle(si + 1)
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("no invalid L2/L3 slots; the test would prove nothing")
	}
	if got := stateDigest(h); got != want {
		t.Fatalf("digest changed with stale handles in invalid slots:\n%s\nwant\n%s", got, want)
	}
}
