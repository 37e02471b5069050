package cache

// Randomized trace equivalence between the fast-path cache model
// (level.go, meta.go, hierarchy.go) and the preserved pre-fast-path model
// (refmodel_test.go): on every seed, both models must produce identical
// per-access latencies, identical stall (fully-pinned-set) decisions,
// identical LLC-eviction and memory-fill hook sequences, identical final
// tag-extension state, and identical hardware counters. This is the same
// proof structure the kernel fast path used (refkernel_test.go): the
// optimization is only allowed to change how fast the answer arrives,
// never the answer.

import (
	"fmt"
	"math/rand"
	"testing"

	"asap/internal/arch"
	"asap/internal/memdev"
	"asap/internal/sim"
	"asap/internal/snapshot"
	"asap/internal/stats"
)

// equivConfig keeps the arrays tiny so evictions, coherence invalidations
// and fully-pinned stalls all happen constantly.
var equivConfigs = []Config{
	{
		L1: LevelConfig{Sets: 2, Ways: 2, Latency: 4},
		L2: LevelConfig{Sets: 4, Ways: 2, Latency: 14},
		L3: LevelConfig{Sets: 8, Ways: 2, Latency: 42},
	},
	{
		L1: LevelConfig{Sets: 1, Ways: 1, Latency: 4},
		L2: LevelConfig{Sets: 1, Ways: 2, Latency: 14},
		L3: LevelConfig{Sets: 2, Ways: 2, Latency: 42},
	},
	{
		L1: LevelConfig{Sets: 4, Ways: 8, Latency: 4},
		L2: LevelConfig{Sets: 8, Ways: 8, Latency: 14},
		L3: LevelConfig{Sets: 16, Ways: 8, Latency: 42},
	},
}

// equivPair is the new model and the reference model built over identical
// (but independent) fabrics and stat sets, with hook probes attached.
type equivPair struct {
	newH  *Hierarchy
	refH  *refHierarchy
	newSt *stats.Set
	refSt *stats.Set

	newTrace []string
	refTrace []string
}

func newEquivPair(cores int, cfg Config, persistent func(arch.LineAddr) bool) *equivPair {
	p := &equivPair{newSt: stats.New(), refSt: stats.New()}
	fNew := memdev.NewFabric(sim.NewKernel(), p.newSt, memdev.DefaultConfig())
	fRef := memdev.NewFabric(sim.NewKernel(), p.refSt, memdev.DefaultConfig())
	p.newH = NewHierarchy(p.newSt, fNew, cores, cfg, persistent)
	p.refH = newRefHierarchy(p.refSt, fRef, cores, cfg, persistent)
	p.newH.SetEvictHook(func(e EvictInfo) {
		p.newTrace = append(p.newTrace, fmt.Sprintf("evict %d dirty=%v locks=%d", e.Line, e.Dirty, e.Meta.Locks))
	})
	p.refH.onLLCEvict = func(e refEvictInfo) {
		p.refTrace = append(p.refTrace, fmt.Sprintf("evict %d dirty=%v locks=%d", e.Line, e.Dirty, e.Meta.Locks))
	}
	p.newH.SetFillHook(func(l arch.LineAddr, m *Meta) {
		p.newTrace = append(p.newTrace, fmt.Sprintf("fill %d", l))
	})
	p.refH.onFill = func(l arch.LineAddr, m *refMeta) {
		p.refTrace = append(p.refTrace, fmt.Sprintf("fill %d", l))
	}
	return p
}

func (p *equivPair) checkTraces(t *testing.T, ctx string) {
	t.Helper()
	if len(p.newTrace) != len(p.refTrace) {
		t.Fatalf("%s: trace length %d vs reference %d\nnew: %v\nref: %v",
			ctx, len(p.newTrace), len(p.refTrace), tail(p.newTrace), tail(p.refTrace))
	}
	for i := range p.newTrace {
		if p.newTrace[i] != p.refTrace[i] {
			t.Fatalf("%s: trace[%d] = %q, reference %q", ctx, i, p.newTrace[i], p.refTrace[i])
		}
	}
}

func tail(s []string) []string {
	if len(s) > 6 {
		return s[len(s)-6:]
	}
	return s
}

// equivProgram seeds one random program: the core count and config it
// runs on, and the rng positioned at its first operation.
func equivProgram(seed int64) (int, Config, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	cores := 1 + rng.Intn(3)
	cfg := equivConfigs[rng.Intn(len(equivConfigs))]
	return cores, cfg, rng
}

// equivPersistent makes half the address space persistent, so both PM and
// DRAM eviction paths run.
func equivPersistent(l arch.LineAddr) bool { return (uint64(l)>>arch.LineShift)&1 == 0 }

// recycleInto hands h the levels of src, reset exactly as Release resets
// them, in place of the ones NewHierarchy gave it. It bypasses the pool so
// the recycled arrays are the ones src dirtied, on every seed.
func recycleInto(h, src *Hierarchy) {
	copy(h.l1, src.l1)
	copy(h.l2, src.l2)
	h.l3 = src.l3
	for i := range h.l1 {
		for _, l := range []*level{h.l1[i], h.l2[i]} {
			l.reset()
			l.table = h.table
		}
	}
	h.l3.reset()
	h.l3.table = h.table
	src.l1, src.l2, src.l3 = nil, nil, nil
}

// stateDigest is h's AppendState digest, every section joined.
func stateDigest(h *Hierarchy) string {
	e := snapshot.NewEnc()
	h.AppendState(e)
	var out string
	for _, sec := range e.Sections() {
		out += sec.Name + ":" + sec.SHA256 + " "
	}
	return out
}

// TestHierarchyEquivalenceRandomized runs every seed's program twice: on
// fresh levels, and on levels recycled from a released hierarchy of the
// same shape that first ran the previous seed's program. Both runs must
// match the reference model, and their final cache-state digests must be
// identical: recycling may never change a decision.
func TestHierarchyEquivalenceRandomized(t *testing.T) {
	const seeds = 48
	for seed := 0; seed < seeds; seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			cores, cfg, rng := equivProgram(seed)
			fresh := newEquivPair(cores, cfg, equivPersistent)
			runEquiv(t, fresh, rng, cores, cfg, fmt.Sprintf("seed %d", seed))

			_, _, prevRng := equivProgram(seed - 1)
			prev := newEquivPair(cores, cfg, equivPersistent)
			runEquiv(t, prev, prevRng, cores, cfg, fmt.Sprintf("seed %d (previous program)", seed))
			_, _, rng = equivProgram(seed)
			recycled := newEquivPair(cores, cfg, equivPersistent)
			recycleInto(recycled.newH, prev.newH)
			runEquiv(t, recycled, rng, cores, cfg, fmt.Sprintf("seed %d (recycled levels)", seed))

			if df, dr := stateDigest(fresh.newH), stateDigest(recycled.newH); df != dr {
				t.Fatalf("seed %d: state digest on recycled levels\n%s\ndiffers from fresh\n%s", seed, dr, df)
			}
		})
	}
}

// runEquiv drives one random program through both models of p, failing
// on the first divergence.
func runEquiv(t *testing.T, p *equivPair, rng *rand.Rand, cores int, cfg Config, name string) {
	t.Helper()
	const opsPerSeed = 4000
	// Lines are drawn from a pool a few times larger than the L3,
	// guaranteeing heavy conflict misses.
	pool := cfg.L3.Sets * cfg.L3.Ways * 3
	var locked []arch.LineAddr

	for op := 0; op < opsPerSeed; op++ {
		ctx := fmt.Sprintf("%s op %d", name, op)
		switch r := rng.Intn(100); {
		case r < 70: // access
			core := rng.Intn(cores)
			line := arch.LineAddr(rng.Intn(pool) * arch.LineSize)
			write := rng.Intn(2) == 0
			latN, _, okN := p.newH.Access(core, line, write)
			latR, okR := p.refH.Access(core, line, write)
			if okN != okR || latN != latR {
				t.Fatalf("%s: Access(%d, %d, %v) = (%d, %v), reference (%d, %v)",
					ctx, core, line, write, latN, okN, latR, okR)
			}
		case r < 80: // lock a line (pin it resident first, as the engine does)
			core := rng.Intn(cores)
			line := arch.LineAddr(rng.Intn(pool) * arch.LineSize)
			_, _, okN := p.newH.Access(core, line, false)
			_, okR := p.refH.Access(core, line, false)
			if okN != okR {
				t.Fatalf("%s: pre-lock access ok %v vs %v", ctx, okN, okR)
			}
			if okN {
				p.newH.Table().Get(line).Lock()
				p.refH.table.Get(line).Lock()
				locked = append(locked, line)
			}
		case r < 90: // unlock the oldest lock
			if len(locked) > 0 {
				line := locked[0]
				locked = locked[1:]
				p.newH.Table().Get(line).Unlock()
				p.refH.table.Get(line).Unlock()
			}
		case r < 95: // MarkClean (the DPO-completion path)
			line := arch.LineAddr(rng.Intn(pool) * arch.LineSize)
			p.newH.MarkClean(line)
			p.refH.MarkClean(line)
		default: // observers must agree too
			core := rng.Intn(cores)
			line := arch.LineAddr(rng.Intn(pool) * arch.LineSize)
			if cn, cr := p.newH.CanAccess(core, line), p.refH.CanAccess(core, line); cn != cr {
				t.Fatalf("%s: CanAccess(%d, %d) = %v, reference %v", ctx, core, line, cn, cr)
			}
			if pn, pr := p.newH.Present(line), p.refH.Present(line); pn != pr {
				t.Fatalf("%s: Present(%d) = %v, reference %v", ctx, line, pn, pr)
			}
		}
		p.checkTraces(t, ctx)
	}

	// Final tag-extension state must match line for line.
	for i := 0; i < pool; i++ {
		line := arch.LineAddr(i * arch.LineSize)
		mr := p.refH.table.Peek(line)
		mn := p.newH.Table().Peek(line)
		if (mr == nil) != (mn == nil) {
			t.Fatalf("%s: line %d allocated=%v, reference %v", name, line, mn != nil, mr != nil)
		}
		if mr == nil {
			continue
		}
		if mn.PBit != mr.PBit || mn.Locks != mr.Locks || mn.Owner != mr.Owner || mn.holders != mr.holders {
			t.Fatalf("%s: line %d meta {PBit:%v Locks:%d Owner:%v holders:%b}, reference {%v %d %v %b}",
				name, line, mn.PBit, mn.Locks, mn.Owner, mn.holders, mr.PBit, mr.Locks, mr.Owner, mr.holders)
		}
	}

	// And the counters: the models were fed identical operations, so
	// every hardware event total must agree.
	sn, sr := p.newSt.Snapshot(), p.refSt.Snapshot()
	for ctr, v := range sr {
		if sn[ctr] != v {
			t.Fatalf("%s: counter %s = %d, reference %d", name, ctr, sn[ctr], v)
		}
	}
	for ctr, v := range sn {
		if sr[ctr] != v {
			t.Fatalf("%s: counter %s = %d, reference %d", name, ctr, v, sr[ctr])
		}
	}
}
